"""JSON descriptions of algebras, modules and catalogs."""

import json
import re

import pytest

from extsym.fileio import (FormatError, algebra_to_dict, catalog_to_dict,
                           load_algebra, load_catalog, load_module,
                           module_to_dict, parse_algebra, parse_catalog,
                           parse_module)
from extsym.instances import a2_catalog
from extsym.modules import ModuleError, is_isomorphic


class TestAlgebraRoundTrip:
    def test_round_trip(self, a2):
        alg, _ = a2
        back = parse_algebra(algebra_to_dict(alg))
        assert back.quiver == alg.quiver
        assert back.relations == alg.relations

    def test_files(self, a2, tmp_path):
        alg, mods = a2
        apath = tmp_path / "alg.json"
        apath.write_text(json.dumps(algebra_to_dict(alg)))
        back = load_algebra(str(apath))
        assert back.quiver == alg.quiver

        mpath = tmp_path / "mod.json"
        mpath.write_text(json.dumps(module_to_dict(mods["P1"])))
        m = load_module(str(mpath), back)
        assert is_isomorphic(m, mods["P1"])[0]

    def test_catalog_round_trip(self, a2, tmp_path):
        alg, _ = a2
        cat = a2_catalog(alg, 2)
        cpath = tmp_path / "cat.json"
        cpath.write_text(json.dumps(catalog_to_dict(cat)))
        back = load_catalog(str(cpath), alg)
        assert set(back) == set(cat)
        for lab in cat:
            assert is_isomorphic(back[lab], cat[lab])[0]
        assert back.indecomposables == ("S1", "S2", "P1", "P2")
        assert catalog_to_dict(back) == catalog_to_dict(cat)

    def test_catalog_without_names_loads(self, a2):
        alg, _ = a2
        data = catalog_to_dict(dict(a2_catalog(alg, 2)))
        assert "indecomposables" not in data
        back = parse_catalog(data, alg)
        assert back.indecomposables == ()
        assert set(back) == set(a2_catalog(alg, 2))


class TestStrictness:
    def test_unknown_algebra_key(self, a2):
        alg, _ = a2
        d = algebra_to_dict(alg)
        d["extra"] = 1
        with pytest.raises(FormatError, match="unknown keys"):
            parse_algebra(d)

    def test_missing_key(self):
        with pytest.raises(FormatError, match="missing key"):
            parse_algebra({"vertices": ["1"]})

    def test_bad_rational(self, a2):
        alg, _ = a2
        with pytest.raises(FormatError, match="rational"):
            parse_module({"dims": {"1": 1, "2": 1},
                          "matrices": {"a": [[1.5]]}}, alg)

    @pytest.mark.parametrize("dim", [1.7, -0.5, "1", "x", True])
    def test_dimension_must_be_an_integer(self, a2, dim):
        alg, _ = a2
        with pytest.raises(FormatError,
                           match="dimension at vertex '2' must be an "
                                 "integer"):
            parse_module({"dims": {"1": 1, "2": dim}}, alg)

    @pytest.mark.parametrize("matrices, match", [
        ({"a": "1"}, "matrix 'a' must be a list of rows"),
        ({"a": ["1"]}, "matrix 'a' must be a list of rows"),
        ([["1"]], "matrices must be an object")])
    def test_matrices_must_be_lists_of_rows(self, a2, matrices, match):
        alg, _ = a2
        with pytest.raises(FormatError, match=match):
            parse_module({"dims": {"1": 1, "2": 1},
                          "matrices": matrices}, alg)

    def test_ragged_matrix_rejected(self, a2):
        alg, _ = a2
        with pytest.raises(FormatError,
                           match="matrix 'a': ragged rows"):
            parse_module({"dims": {"1": 2, "2": 2},
                          "matrices": {"a": [["1", "0"], ["1"]]}}, alg)

    @pytest.mark.parametrize("field", ["name", "from", "to"])
    @pytest.mark.parametrize("value", [["a"], 1])
    def test_arrow_fields_must_be_strings(self, a2, field, value):
        alg, _ = a2
        d = algebra_to_dict(alg)
        d["arrows"][0][field] = value
        with pytest.raises(FormatError, match=re.escape(
                f"arrow #0: {field} must be a string, got {value!r}")):
            parse_algebra(d)

    @pytest.mark.parametrize("label", [3, ["x"], None])
    def test_labels_must_be_strings(self, a2, label):
        alg, _ = a2
        d = algebra_to_dict(alg)
        d["label"] = label
        with pytest.raises(FormatError, match="algebra: label must be a "
                                              "string"):
            parse_algebra(d)
        with pytest.raises(FormatError, match="module: label must be a "
                                              "string"):
            parse_module({"dims": {"1": 1}, "label": label}, alg)

    def test_boolean_is_not_a_rational(self, a2):
        alg, _ = a2
        with pytest.raises(FormatError, match="matrix 'a\\*': rational"):
            parse_module({"dims": {"1": 1, "2": 1},
                          "matrices": {"a*": [[True]]}}, alg)

    def test_unknown_vertex(self, a2):
        alg, _ = a2
        with pytest.raises(FormatError, match="unknown vertex"):
            parse_module({"dims": {"3": 1}}, alg)

    def test_unknown_arrow(self, a2):
        alg, _ = a2
        with pytest.raises(FormatError, match="unknown arrow"):
            parse_module({"dims": {"1": 1},
                          "matrices": {"b": [["1"]]}}, alg)

    def test_relation_violation_surfaces(self, a2):
        alg, _ = a2
        with pytest.raises(ModuleError, match="relation"):
            parse_module({"dims": {"1": 1, "2": 1},
                          "matrices": {"a": [["1"]], "a*": [["1"]]}}, alg)

    def test_empty_relation_rejected(self, a2):
        alg, _ = a2
        d = algebra_to_dict(alg)
        d["relations"].append([])
        with pytest.raises(FormatError, match="nonempty"):
            parse_algebra(d)

    def test_catalog_requires_modules_key(self, a2):
        alg, _ = a2
        with pytest.raises(FormatError):
            parse_catalog({"entries": {}}, alg)

    @pytest.mark.parametrize("names, match", [
        (["S1", "Q7"], "not catalog entries: Q7"),
        (["S1", "S1"], "repeated: S1"), ("S1", "list of strings"),
        ([1], "list of strings")])
    def test_catalog_names_checked(self, a2, names, match):
        alg, _ = a2
        data = catalog_to_dict(a2_catalog(alg, 2))
        data["indecomposables"] = names
        with pytest.raises(FormatError, match=match):
            parse_catalog(data, alg)

    def test_vertex_path_round_trip(self, a2):
        """Relation terms supported at a vertex survive serialization."""
        alg, _ = a2
        d = algebra_to_dict(alg)
        assert parse_algebra(d).relations == alg.relations
