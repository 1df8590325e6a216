"""Command-line interface, exercised through click's test runner."""

import json

import pytest
from click.testing import CliRunner

from extsym.cli import main
from extsym.fileio import algebra_to_dict, catalog_to_dict, module_to_dict
from extsym.instances import a2_catalog, a2_modules, a2_preprojective
from extsym.modules import direct_sum


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    alg = a2_preprojective()
    mods = a2_modules(alg)
    paths = {"algebra": root / "alg.json",
             "catalog": root / "cat.json"}
    paths["algebra"].write_text(json.dumps(algebra_to_dict(alg)))
    paths["catalog"].write_text(
        json.dumps(catalog_to_dict(a2_catalog(alg, 2))))
    # the same entries without the "indecomposables" key
    paths["plain_catalog"] = root / "plain.json"
    paths["plain_catalog"].write_text(
        json.dumps(catalog_to_dict(dict(a2_catalog(alg, 2)))))
    for lab, m in mods.items():
        paths[lab] = root / f"{lab}.json"
        paths[lab].write_text(json.dumps(module_to_dict(m)))
    bad = dict(algebra_to_dict(alg))
    bad["surprise"] = True
    paths["bad_algebra"] = root / "bad.json"
    paths["bad_algebra"].write_text(json.dumps(bad))
    return {k: str(v) for k, v in paths.items()}


def run(*args):
    return CliRunner().invoke(main, list(args))


class TestAlgebraCheck:
    def test_pass(self, files):
        r = run("algebra", "check", "--algebra", files["algebra"])
        assert r.exit_code == 0
        assert "ok" in r.output

    def test_json(self, files):
        r = run("algebra", "check", "--algebra", files["algebra"], "--json")
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["verdict"] == "pass"
        assert payload["vertices"] == ["1", "2"]

    def test_rejects_unknown_key(self, files):
        r = run("algebra", "check", "--algebra", files["bad_algebra"])
        assert r.exit_code == 1

    def test_rejects_unknown_key_json(self, files):
        r = run("algebra", "check", "--algebra", files["bad_algebra"],
                "--json")
        assert r.exit_code == 1
        assert json.loads(r.output)["verdict"] == "error"


class TestExtDim:
    def test_dimension_that_is_not_an_integer(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dims": {"1": 1.7}}))
        r = run("ext", "dim", "--algebra", files["algebra"],
                "--module", str(bad), "--module", files["S2"])
        assert r.exit_code == 1
        assert r.output == "error: module: dimension at vertex '1' must " \
                           "be an integer, got 1.7\n"

    def test_ragged_matrix_is_an_error_verdict(self, files, tmp_path):
        bad = tmp_path / "ragged.json"
        bad.write_text(json.dumps({"dims": {"1": 2, "2": 2},
                                   "matrices": {"a": [["1", "0"], ["1"]]}}))
        r = run("ext", "dim", "--algebra", files["algebra"],
                "--module", str(bad), "--module", files["S2"], "--json")
        assert r.exit_code == 1
        assert json.loads(r.output) == {
            "verdict": "error",
            "message": "module: matrix 'a': ragged rows"}

    def test_base_pair(self, files):
        r = run("ext", "dim", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"], "--json")
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload == {"dim_ext_mn": 1, "dim_ext_nm": 1}

    def test_needs_two_modules(self, files):
        r = run("ext", "dim", "--algebra", files["algebra"],
                "--module", files["S1"])
        assert r.exit_code == 1


class TestChi:
    def test_grassmann_chi(self, files):
        r = run("grassmann", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--dims", "0,1", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["chi"] == 1

    def test_flag_chi(self, files):
        r = run("flag", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--simples", "vertex:1,vertex:2",
                "--type", "0,1", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["chi"] == 1

    def test_flag_chi_other_order(self, files):
        r = run("flag", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--simples", "vertex:1,vertex:2",
                "--type", "1,0", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["chi"] == 0

    @pytest.mark.parametrize("jseq, bad", [("-2,-1", "-2, -1"),
                                           ("0,5", "5")])
    def test_flag_chi_indices_out_of_range(self, files, jseq, bad):
        r = run("flag", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--simples", "vertex:1,vertex:2",
                "--type", jseq)
        assert r.exit_code == 1
        assert r.output.startswith("error: ")
        assert r.output.rstrip().endswith(f"2 simples: {bad}")

    def test_explicit_primes(self, files):
        r = run("grassmann", "chi", "--algebra", files["algebra"],
                "--module", files["S1"], "--dims", "1,0",
                "--primes", "2,3,5,7,11", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["chi"] == 1

    @pytest.mark.parametrize("module, edims, primes", [
        ("S1", "5,0", None), ("S1", "5,0", "2,3,5"), ("P1", "2,-1", None),
        ("S1", "1", None), ("S1", "1,0,0", "2,3,5")])
    def test_dims_outside_module_rejected(self, files, module, edims,
                                          primes):
        args = ["grassmann", "chi", "--algebra", files["algebra"],
                "--module", files[module], "--dims", edims, "--json"]
        if primes:
            args += ["--primes", primes]
        r = run(*args)
        assert r.exit_code == 1
        out = json.loads(r.output)
        assert out["verdict"] == "error"
        msg = out["message"]
        assert "usable primes" not in msg
        given = tuple(int(x) for x in edims.split(","))
        module_dims = (1, 0) if module == "S1" else (1, 1)
        assert str(given) in msg and str(module_dims) in msg

    def test_too_few_primes(self, files):
        r = run("grassmann", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--dims", "0,1",
                "--primes", "2", "--json")
        assert r.exit_code == 1

    def test_values_that_are_not_prime_rejected(self, files):
        r = run("grassmann", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--dims", "0,1",
                "--primes", "4,6,8,9,2,3,5,7", "--json")
        assert r.exit_code == 1
        out = json.loads(r.output)
        assert out["verdict"] == "error"
        assert out["message"] == "supplied values are not prime: 4, 6, 8, 9"


    @pytest.mark.parametrize("command, primes", [
        (["verify", "f1"], "5,5,5,5,5"), (["verify", "f2"], "5,5,5,5,5"),
        (["grassmann", "chi"], "5,5,5,5,5,5,5"),
        (["flag", "chi"], "7,7,7,7,7,7,7,7,7"), (["delta"], "3,2,3,5,2")])
    def test_repeated_values_rejected(self, files, command, primes):
        args = {"verify": ["--module", files["S1"], "--module", files["S2"],
                           "--catalog", files["catalog"],
                           "--simples", "vertex:1,vertex:2"],
                "grassmann": ["--module", files["P1"], "--dims", "0,1"],
                "flag": ["--module", files["P1"],
                         "--simples", "vertex:1,vertex:2", "--type", "0,1"],
                "delta": ["--module", files["P1"],
                          "--simples", "vertex:1,vertex:2"]}[command[0]]
        r = run(*command, "--algebra", files["algebra"], *args,
                "--primes", primes, "--json")
        assert r.exit_code == 1
        out = json.loads(r.output)
        assert out["verdict"] == "error"
        want = "2, 3" if command == ["delta"] else primes[0]
        assert out["message"] == f"supplied values are repeated: {want}"

    def test_values_above_the_limit_rejected(self, files):
        r = run("grassmann", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--dims", "0,1",
                "--primes", "2305843009213693951,2,3,5,7")
        assert r.exit_code == 1
        assert r.output == ("error: supplied values exceed 10000: "
                            "2305843009213693951\n")

    @pytest.mark.parametrize("args", [
        ["grassmann", "chi", "--dims", "1,,1"],
        ["flag", "chi", "--simples", "vertex:1,vertex:2",
         "--type", "1,,0,0"],
        ["grassmann", "chi", "--dims", "0,1", "--primes", "2,3,"]])
    def test_empty_list_entries_rejected(self, files, args):
        # refused like a non-integer entry, not dropped from the list
        r = run(*args, "--algebra", files["algebra"],
                "--module", files["P1"])
        assert r.exit_code == 2
        assert f"not a comma-separated integer list: {args[-1]}" in r.output

    @pytest.mark.parametrize("args", [
        ["grassmann", "chi", "--dims", "1,x"],
        ["flag", "chi", "--simples", "vertex:1,vertex:2", "--type", "0,x"],
        ["grassmann", "chi", "--dims", "0,1", "--primes", "2,,3"]])
    def test_malformed_list_under_json(self, files, args):
        # a usage error: exit status 2, the error object on stdout
        r = run(*args, "--algebra", files["algebra"],
                "--module", files["P1"], "--json")
        assert r.exit_code == 2
        assert json.loads(r.stdout) == {
            "verdict": "error",
            "message": f"not a comma-separated integer list: {args[-1]}"}


class TestOneEvaluationPath:
    """``grassmann chi`` and ``flag chi`` read one slot of the table that
    ``delta`` prints: same value, polynomial, samples and degree bound."""

    @staticmethod
    def sum_file(tmp_path, a, b):
        from extsym.instances import a2_modules, a2_preprojective
        from extsym.modules import direct_sum
        mods = a2_modules(a2_preprojective())
        path = tmp_path / f"{a}+{b}.json"
        path.write_text(json.dumps(module_to_dict(
            direct_sum(mods[a], mods[b]))))
        return str(path)

    @staticmethod
    def slot_fields(payload):
        return {k: payload[k] for k in
                ("value", "polynomial", "samples", "degree_bound")}

    def test_grassmann_chi_is_a_row_of_delta(self, files, tmp_path):
        module = self.sum_file(tmp_path, "S1", "P1")
        base = ["--algebra", files["algebra"], "--module", module, "--json"]
        r = run("delta", "--mode", "grassmann", *base)
        assert r.exit_code == 0
        rows = json.loads(r.output)["table"]
        assert len(rows) == 6
        for row in rows:
            r = run("grassmann", "chi", *base,
                    "--dims", ",".join(map(str, row["type"])))
            assert r.exit_code == 0
            assert self.slot_fields(json.loads(r.output)) == \
                self.slot_fields(row)

    def test_flag_chi_is_a_row_of_delta(self, files, tmp_path):
        module = self.sum_file(tmp_path, "S1", "P2")
        base = ["--algebra", files["algebra"], "--module", module,
                "--simples", "vertex:1,vertex:2", "--json"]
        r = run("delta", *base)
        assert r.exit_code == 0
        rows = json.loads(r.output)["table"]
        assert len(rows) == 3
        for row in rows:
            r = run("flag", "chi", *base,
                    "--type", ",".join(map(str, row["type"])))
            assert r.exit_code == 0
            assert self.slot_fields(json.loads(r.output)) == \
                self.slot_fields(row)


class TestDeltaAndStratify:
    def test_delta_flag_mode(self, files):
        r = run("delta", "--algebra", files["algebra"],
                "--module", files["P1"], "--simples", "vertex:1,vertex:2",
                "--json")
        assert r.exit_code == 0
        table = json.loads(r.output)["table"]
        vals = {tuple(row["type"]): row["value"] for row in table}
        assert vals == {(0, 1): 1, (1, 0): 0}

    def test_simples_from_catalog_labels(self, files):
        r = run("delta", "--algebra", files["algebra"],
                "--module", files["P2"], "--catalog", files["catalog"],
                "--simples", "S1,S2", "--json")
        assert r.exit_code == 0

    def test_unknown_simple_token(self, files):
        r = run("delta", "--algebra", files["algebra"],
                "--module", files["P1"], "--simples", "nope")
        assert r.exit_code == 1

    def test_zero_simple_refused(self, files, tmp_path):
        doc = json.loads(open(files["catalog"]).read())
        doc["modules"]["Z"] = {"dims": {}}
        cat = tmp_path / "zero.json"
        cat.write_text(json.dumps(doc))
        r = run("delta", "--algebra", files["algebra"],
                "--module", files["P1"], "--catalog", str(cat),
                "--simples", "vertex:1,vertex:2,Z")
        assert r.exit_code == 1
        assert r.output.startswith("error: ")
        assert "index 2" in r.output

    def test_zero_simple_refused_by_flag_chi(self, files, tmp_path):
        cat = tmp_path / "zero.json"
        cat.write_text(json.dumps({"modules": {"Z": {"dims": {}},
                                               "S1": {"dims": {"1": 1}}}}))
        r = run("flag", "chi", "--algebra", files["algebra"],
                "--module", files["S1"], "--catalog", str(cat),
                "--simples", "Z,vertex:1", "--type", "0,1", "--json")
        assert r.exit_code == 1
        assert json.loads(r.output) == {
            "verdict": "error",
            "message": "the list of simples holds a zero module at index 0"}

    def test_stratify(self, files):
        r = run("stratify", "--algebra", files["algebra"],
                "--catalog", files["catalog"],
                "--simples", "vertex:1,vertex:2", "--json")
        assert r.exit_code == 0
        classes = json.loads(r.output)["classes"]
        assert sorted(map(sorted, classes)) == \
            sorted([["P1"], ["P2"], ["S1"], ["S2"], ["S1+S2"],
                    ["S1+S1"], ["S2+S2"]])

    @pytest.mark.parametrize("catalog", ["catalog", "plain_catalog"])
    def test_stratify_refuses_entries_the_simples_cannot_build(self, files,
                                                               catalog):
        r = run("stratify", "--algebra", files["algebra"],
                "--catalog", files[catalog], "--simples", "vertex:1",
                "--json")
        assert r.exit_code == 1
        payload = json.loads(r.output)
        assert payload["verdict"] == "error"
        assert payload["message"].startswith(
            "S2 of dimension vector (0, 1) has no flag type")

    def test_delta_refuses_a_module_the_simples_cannot_build(self, files,
                                                            tmp_path):
        alg = a2_preprojective()
        mods = a2_modules(alg)
        path = tmp_path / "S2+P1.json"
        path.write_text(json.dumps(module_to_dict(
            direct_sum(mods["S2"], mods["P1"]))))
        r = run("delta", "--algebra", files["algebra"], "--module",
                str(path), "--simples", "vertex:1", "--json")
        assert r.exit_code == 1
        assert json.loads(r.output)["message"] == (
            "module of dimension vector (1, 2) has no flag type: no "
            "sequence of the simples' dimension vectors ((1, 0)) sums to it")


class TestVerify:
    def test_f2_pass(self, files):
        r = run("verify", "f2", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--catalog", files["catalog"],
                "--simples", "vertex:1,vertex:2", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"] == "pass"

    def test_f1_pass(self, files):
        r = run("verify", "f1", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--catalog", files["catalog"],
                "--simples", "vertex:1,vertex:2", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"] == "pass"

    def test_f2_with_supplied_primes(self, files):
        """The catalog names its indecomposables, so f2 screens no primes
        of its own; the strata of each pair of named modules take theirs
        from the supplied list, which must hold enough."""
        args = ("verify", "f2", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--catalog", files["catalog"],
                "--simples", "vertex:1,vertex:2", "--json")
        r = run(*args, "--primes", "3,2,5,7,11,13")
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["verdict"] == "pass"
        assert out["primes"] == []
        r = run(*args, "--primes", "3")
        assert r.exit_code == 1
        assert json.loads(r.output)["message"] == (
            "only 1 of the supplied primes pass the good-prime screen, "
            "2 needed")

    @pytest.mark.parametrize("which", ["f1", "f2"])
    @pytest.mark.parametrize("catalog, method", [
        ("catalog", "localised"), ("plain_catalog", "isomorphism")])
    def test_reports_strata_method(self, files, which, catalog, method):
        # only the Grassmannian identity has a correction term, localised
        # onto the named summands under the named catalog
        correction = "localised" if catalog == "catalog" else "counted"
        r = run("verify", which, "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--catalog", files[catalog],
                "--simples", "vertex:1,vertex:2", "--json")
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["details"]["strata_method"] == method
        assert out["details"].get("correction_method") == (
            correction if which == "f1" else None)
        assert out["strata"]["P1"]["forward"] == 1

    @pytest.mark.parametrize("which", ["f1", "f2"])
    @pytest.mark.parametrize("catalog, method", [
        ("catalog", "convolution"), ("plain_catalog", "counted")])
    def test_reports_chi_method(self, files, which, catalog, method):
        r = run("verify", which, "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--catalog", files[catalog],
                "--simples", "vertex:1,vertex:2", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["details"]["chi_method"] == method

    @pytest.mark.parametrize("which", ["f1", "f2"])
    def test_partly_named_catalog_refused(self, files, tmp_path, which):
        # names S1 and S2 only, yet holds P1 and its sums
        from extsym.instances import a2_preprojective, a2_sums
        from extsym.modules import Catalog
        alg = a2_preprojective()
        cat = tmp_path / "short.json"
        cat.write_text(json.dumps(catalog_to_dict(
            Catalog(a2_catalog(alg, 4), ("S1", "S2")))))
        mod = tmp_path / "S1+P1.json"
        mod.write_text(json.dumps(module_to_dict(a2_sums(alg, 3)["S1+P1"])))
        r = run("verify", which, "--algebra", files["algebra"],
                "--module", str(mod), "--module", files["S2"],
                "--catalog", str(cat), "--simples", "vertex:1,vertex:2",
                "--json")
        assert r.exit_code == 1
        out = json.loads(r.output)
        assert out["verdict"] == "error"
        assert "does not name all of its indecomposables" in out["message"]

    @pytest.mark.parametrize("which", ["f1", "f2"])
    @pytest.mark.parametrize("change, message", [
        ("no P1", "catalog incomplete: no entry matches a middle term with "
                  "dimension vector (1, 1), or an isomorphism test was "
                  "undecidable"),
        ("plain, no (1, 1)", "catalog incomplete: no entry matches a "
                             "middle term with dimension vector (1, 1), or "
                             "an isomorphism test was undecidable"),
        ("twin", "catalog entries S1+S2 and S2+S1 are both the direct sum "
                 "S1+S2 of named indecomposables")])
    def test_named_catalog_refused(self, files, tmp_path, which, change,
                                   message):
        from extsym.instances import a2_modules, a2_preprojective
        from extsym.modules import Catalog, direct_sum
        alg = a2_preprojective()
        full = a2_catalog(alg, 2)
        if change == "no P1":
            cat = Catalog({k: c for k, c in full.items() if k != "P1"},
                          ("S1", "S2", "P2"))
        elif change == "plain, no (1, 1)":
            cat = {k: full[k] for k in ("S1", "S2")}
        else:
            mods = a2_modules(alg)
            cat = Catalog({**full, "S2+S1": direct_sum(mods["S2"],
                                                       mods["S1"])},
                          full.indecomposables)
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(catalog_to_dict(cat)))
        r = run("verify", which, "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--catalog", str(path), "--simples", "vertex:1,vertex:2",
                "--json")
        assert r.exit_code == 1
        assert json.loads(r.output) == {"verdict": "error",
                                        "message": message}

    def test_simple_at_a_missing_vertex_refused(self, files):
        r = run("verify", "f2", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--catalog", files["catalog"],
                "--simples", "vertex:1,vertex:9", "--json")
        assert r.exit_code == 1
        assert json.loads(r.output) == {
            "verdict": "error",
            "message": "no simple at vertex '9': the quiver has vertices "
                       "'1', '2'"}

    def test_module_outside_the_subcategory_refused(self, files):
        # the membership check is memoised: the second run refuses too
        for _ in range(2):
            r = run("verify", "f2", "--algebra", files["algebra"],
                    "--module", files["S1"], "--module", files["S2"],
                    "--catalog", files["catalog"], "--simples", "vertex:1",
                    "--json")
            assert r.exit_code == 1
            assert json.loads(r.output)["message"].startswith(
                "second module has no composition chain")

    def test_verify_needs_catalog(self, files):
        r = run("verify", "f2", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--simples", "vertex:1,vertex:2")
        assert r.exit_code == 1

    @pytest.mark.parametrize("which", ["f2", "f1"])
    def test_forced_asymmetric_pair_fails(self, three_vertex_catalog,
                                          tmp_path, which):
        s, cat = three_vertex_catalog
        paths = {"alg": algebra_to_dict(s["S1"].algebra),
                 "cat": catalog_to_dict(cat),
                 "S1": module_to_dict(s["S1"]),
                 "S2": module_to_dict(s["S2"])}
        for name, doc in paths.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        args = ["verify", which, "--algebra", str(tmp_path / "alg.json"),
                "--module", str(tmp_path / "S1.json"),
                "--module", str(tmp_path / "S2.json"),
                "--catalog", str(tmp_path / "cat.json"),
                "--simples", "vertex:1,vertex:2", "--json"]
        refused = run(*args)
        assert refused.exit_code == 1
        assert json.loads(refused.output)["verdict"] == "error"
        r = run(*args, "--allow-asymmetric")
        assert r.exit_code == 1
        out = json.loads(r.output)
        assert (out["verdict"], out["symmetry_audit"]) == ("fail", "fail")


class TestToplevel:
    def test_selftest(self):
        r = run("selftest", "--json")
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["verdict"] == "pass"

    def test_audit_subset(self):
        r = run("audit", "--instances", "II,III", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"] == "pass"

    @pytest.mark.parametrize("instances, named", [
        ("X", "'X'"), ("II,V", "'V'"), ("", "''")])
    def test_audit_unknown_instances_refused(self, instances, named):
        r = run("audit", "--instances", instances, "--json")
        assert r.exit_code == 1
        out = json.loads(r.output)
        assert out["verdict"] == "error"
        assert out["message"].startswith(
            f"unknown audit instances: {named};")
