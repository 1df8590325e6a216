"""JSON definition files for algebras, modules, and catalogs.

Grammar (all files are JSON objects, unknown keys rejected):

Algebra file::

    {
      "label": "optional string",
      "vertices": ["1", "2"],
      "arrows": [{"name": "a", "from": "1", "to": "2"}],
      "relations": [
        [{"coeff": "1", "path": ["a", "a*"]},
         {"coeff": "-1/2", "path": "vertex:1"}]
      ]
    }

Coefficients are rational strings ("p/q" or "p").  A path is a list of
arrow names, leftmost applied last, or the string "vertex:v" for the
length-zero path at vertex v.

Module file::

    {
      "label": "optional",
      "dims": {"1": 1, "2": 1},
      "matrices": {"a": [["1"]], "a*": [["0"]]}
    }

Dimensions are JSON integers.  A matrix is a list of rows, each a list;
its entries are rational strings or JSON integers, and omitted arrows get
zero matrices.  Rows are indexed by the target vertex, columns by the
source.

Catalog file::

    {"modules": {"P1": {<module object>}, "P2": {...}},
     "indecomposables": ["P1", ...]}

The optional "indecomposables" lists the labels of entries that are every
indecomposable module, one per isomorphism class, up to the largest total
dimension among the entries; each must be a label of "modules".
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Sequence

from .algebra import (AlgebraPresentation, Path, Relation, arrow_path,
                      make_quiver, vertex_path)
from .fields import RATIONALS
from .modules import (Catalog, ModuleError, RepModule, module_from_fractions,
                      named_indecomposables)


class FormatError(ValueError):
    pass


def _require_keys(obj: dict, required: Sequence[str], optional: Sequence[str],
                  what: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{what}: expected an object")
    for k in required:
        if k not in obj:
            raise FormatError(f"{what}: missing key {k!r}")
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise FormatError(f"{what}: unknown keys {sorted(extra)}")


def _require_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{what} must be a string, got {value!r}")
    return value


def _parse_fraction(s, what: str) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise FormatError(f"{what}: rational must be a string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{what}: bad rational {s!r}: {exc}") from None


def _parse_path(raw, what: str) -> Path:
    if isinstance(raw, str):
        if not raw.startswith("vertex:"):
            raise FormatError(
                f"{what}: string path must look like 'vertex:v'")
        return vertex_path(raw[len("vertex:"):])
    if isinstance(raw, list) and all(isinstance(x, str) for x in raw) and raw:
        return arrow_path(*raw)
    raise FormatError(f"{what}: path must be a nonempty arrow-name list "
                      f"or 'vertex:v'")


def parse_algebra(data: dict) -> AlgebraPresentation:
    _require_keys(data, ["vertices", "arrows"], ["relations", "label"],
                  "algebra")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or \
            not all(isinstance(v, str) for v in vertices):
        raise FormatError("algebra: vertices must be a list of strings")
    arrows = []
    for i, a in enumerate(data["arrows"]):
        _require_keys(a, ["name", "from", "to"], [], f"arrow #{i}")
        arrows.append(tuple(_require_str(a[k], f"arrow #{i}: {k}")
                            for k in ("name", "from", "to")))
    quiver = make_quiver(tuple(vertices), tuple(arrows))
    relations = []
    for i, rel in enumerate(data.get("relations", [])):
        if not isinstance(rel, list) or not rel:
            raise FormatError(f"relation #{i}: must be a nonempty term list")
        terms = []
        for j, term in enumerate(rel):
            _require_keys(term, ["coeff", "path"], [],
                          f"relation #{i} term #{j}")
            terms.append((_parse_fraction(term["coeff"],
                                          f"relation #{i} term #{j}"),
                          _parse_path(term["path"],
                                      f"relation #{i} term #{j}")))
        relations.append(Relation(tuple(terms)))
    return AlgebraPresentation(quiver, tuple(relations),
                               label=_require_str(data.get("label", ""),
                                                  "algebra: label"))


def parse_module(data: dict, algebra: AlgebraPresentation) -> RepModule:
    _require_keys(data, ["dims"], ["matrices", "label"], "module")
    _require_str(data.get("label", ""), "module: label")
    dims = data["dims"]
    if not isinstance(dims, dict):
        raise FormatError("module: dims must be an object")
    for v, d in dims.items():
        if v not in algebra.quiver.vertices:
            raise FormatError(f"module: unknown vertex {v!r} in dims")
        if not isinstance(d, int) or isinstance(d, bool):
            raise FormatError(f"module: dimension at vertex {v!r} must be "
                              f"an integer, got {d!r}")
    matrices = data.get("matrices", {})
    if not isinstance(matrices, dict):
        raise FormatError("module: matrices must be an object")
    known = {a.name for a in algebra.quiver.arrows}
    mats = {}
    for name, rows in matrices.items():
        if name not in known:
            raise FormatError(f"module: unknown arrow {name!r} in matrices")
        if not isinstance(rows, list) or \
                not all(isinstance(row, list) for row in rows):
            raise FormatError(f"module: matrix {name!r} must be a list of "
                              f"rows, each a list")
        if len({len(row) for row in rows}) > 1:
            raise FormatError(f"module: matrix {name!r}: ragged rows")
        mats[name] = [[_parse_fraction(x, f"matrix {name!r}") for x in row]
                      for row in rows]
    full_dims = {v: dims.get(v, 0) for v in algebra.quiver.vertices}
    return module_from_fractions(algebra, RATIONALS, full_dims, mats)


def parse_catalog(data: dict, algebra: AlgebraPresentation) -> Catalog:
    _require_keys(data, ["modules"], ["indecomposables"], "catalog")
    if not isinstance(data["modules"], dict):
        raise FormatError("catalog: modules must be an object")
    names = data.get("indecomposables", [])
    if not isinstance(names, list) or \
            not all(isinstance(x, str) for x in names):
        raise FormatError("catalog: indecomposables must be a list of "
                          "strings")
    mods = {lab: parse_module(m, algebra)
            for lab, m in data["modules"].items()}
    try:
        return Catalog(mods, names)
    except ModuleError as exc:
        raise FormatError(f"catalog: {exc}") from None


def load_algebra(path: str) -> AlgebraPresentation:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(json.load(fh))


def load_module(path: str, algebra: AlgebraPresentation) -> RepModule:
    with open(path, encoding="utf-8") as fh:
        return parse_module(json.load(fh), algebra)


def load_catalog(path: str, algebra: AlgebraPresentation) -> Catalog:
    with open(path, encoding="utf-8") as fh:
        return parse_catalog(json.load(fh), algebra)


# Serialization (round-trip helpers) ----------------------------------------


def algebra_to_dict(alg: AlgebraPresentation) -> dict:
    rels = []
    for rel in alg.relations:
        rels.append([{"coeff": str(c),
                      "path": (f"vertex:{p.vertex}" if p.is_vertex
                               else list(p.arrows))}
                     for c, p in rel.terms])
    return {"label": alg.label,
            "vertices": list(alg.quiver.vertices),
            "arrows": [{"name": a.name, "from": a.source, "to": a.target}
                       for a in alg.quiver.arrows],
            "relations": rels}


def module_to_dict(m: RepModule) -> dict:
    q = m.algebra.quiver
    return {"dims": {v: m.dims[i] for i, v in enumerate(q.vertices)
                     if m.dims[i]},
            "matrices": {a.name: [[str(x) for x in row]
                                  for row in m.matrices[i].rows]
                         for i, a in enumerate(q.arrows)
                         if m.matrices[i].nrows and m.matrices[i].ncols}}


def catalog_to_dict(cat: Dict[str, RepModule]) -> dict:
    out = {"modules": {lab: module_to_dict(m) for lab, m in cat.items()}}
    names = named_indecomposables(cat)
    if names:
        out["indecomposables"] = list(names)
    return out
