"""Quivers, paths, relations and algebra presentations.

Path composition convention: a path (a1, ..., am) acts as the matrix
product x_{a1} x_{a2} ... x_{am}, i.e. the leftmost arrow is applied last.
Consequently source(p) = s(am) and target(p) = t(a1), and consecutive
arrows must satisfy s(a_k) = t(a_{k+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .linalg import Mat, identity, mat_add, mat_mul, mat_scale, zeros


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: Tuple[str, ...]
    arrows: Tuple[Arrow, ...]

    def __post_init__(self):
        if not self.vertices:
            raise AlgebraError("quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate arrow ids")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise AlgebraError(f"dangling arrow endpoint on {a.name!r}")

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise AlgebraError(f"unknown arrow {name!r}")

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise AlgebraError(f"unknown vertex {v!r}") from None

    def arrow_index(self, name: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.name == name:
                return i
        raise AlgebraError(f"unknown arrow {name!r}")


def make_quiver(vertices: Sequence[str], arrows: Sequence[Tuple[str, str, str]]) -> Quiver:
    """Arrows given as (name, source, target)."""
    return Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows))


@dataclass(frozen=True)
class Path:
    """Either a vertex path (length 0) or a nonempty arrow-name sequence."""

    vertex: Optional[str] = None
    arrows: Tuple[str, ...] = ()

    def __post_init__(self):
        if (self.vertex is None) == (len(self.arrows) == 0):
            raise AlgebraError("path is either a vertex or a nonempty arrow list")

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def endpoints(self, quiver: Quiver) -> Tuple[str, str]:
        """(source, target); validates composability against the quiver."""
        if self.is_vertex:
            if self.vertex not in quiver.vertices:
                raise AlgebraError(f"unknown vertex {self.vertex!r}")
            return self.vertex, self.vertex
        arrs = [quiver.arrow(n) for n in self.arrows]
        for left, right in zip(arrs, arrs[1:]):
            if left.source != right.target:
                raise AlgebraError(
                    f"non-composable pair {left.name!r}{right.name!r} in path")
        return arrs[-1].source, arrs[0].target


def vertex_path(v: str) -> Path:
    return Path(vertex=v)


def arrow_path(*names: str) -> Path:
    return Path(arrows=tuple(names))


@dataclass(frozen=True)
class Relation:
    """Nonempty linear combination of paths sharing source and target."""

    terms: Tuple[Tuple[Fraction, Path], ...]

    def __post_init__(self):
        if not self.terms:
            raise AlgebraError("empty relation")
        for coeff, _ in self.terms:
            if coeff == 0:
                raise AlgebraError("zero coefficient in relation")

    def endpoints(self, quiver: Quiver) -> Tuple[str, str]:
        eps = {path.endpoints(quiver) for _, path in self.terms}
        if len(eps) != 1:
            raise AlgebraError("mixed endpoints in relation")
        return next(iter(eps))


def relation(*terms) -> Relation:
    """Terms as (coefficient, Path); coefficients coerced to Fraction."""
    return Relation(tuple((Fraction(c), p) for c, p in terms))


@dataclass(frozen=True)
class AlgebraPresentation:
    quiver: Quiver
    relations: Tuple[Relation, ...]
    label: str = ""

    def key(self) -> str:
        parts = [",".join(self.quiver.vertices),
                 ";".join(f"{a.name}:{a.source}>{a.target}" for a in self.quiver.arrows)]
        for rel in self.relations:
            parts.append("|".join(
                f"{c}*{'v' + p.vertex if p.is_vertex else '.'.join(p.arrows)}"
                for c, p in rel.terms))
        return "&".join(parts)


def validate_presentation(quiver: Quiver, relations: Sequence[Relation],
                          label: str = "") -> AlgebraPresentation:
    for rel in relations:
        rel.endpoints(quiver)          # raises on mixed endpoints
    return AlgebraPresentation(quiver, tuple(relations), label)


# ---------------------------------------------------------------------------
# Path evaluation


def evaluate_path(field, quiver: Quiver, dims: Dict[str, int],
                  matrices: Dict[str, Mat], path: Path) -> Mat:
    """x_p = x_{a1} ... x_{am}; identity of size d_v for a vertex path at v."""
    src, tgt = path.endpoints(quiver)
    if path.is_vertex:
        return identity(field, dims[path.vertex])
    result = None
    for name in path.arrows:
        a = quiver.arrow(name)
        m = matrices[name]
        if (m.nrows, m.ncols) != (dims[a.target], dims[a.source]):
            raise AlgebraError(
                f"matrix for {name!r} has shape {m.nrows}x{m.ncols}, "
                f"expected {dims[a.target]}x{dims[a.source]}")
        result = m if result is None else mat_mul(field, result, m)
    return result


def evaluate_relation(field, quiver: Quiver, dims: Dict[str, int],
                      matrices: Dict[str, Mat], rel: Relation) -> Mat:
    src, tgt = rel.endpoints(quiver)
    acc = zeros(field, dims[tgt], dims[src])
    for coeff, path in rel.terms:
        val = evaluate_path(field, quiver, dims, matrices, path)
        acc = mat_add(field, acc, mat_scale(field, field.from_fraction(coeff), val))
    return acc


# ---------------------------------------------------------------------------
# Preprojective constructors


def double_quiver(base: Quiver) -> Quiver:
    for a in base.arrows:
        if a.source == a.target:
            raise AlgebraError(f"loop {a.name!r} in base quiver")
    doubled = list(base.arrows) + [Arrow(a.name + "*", a.target, a.source)
                                   for a in base.arrows]
    return Quiver(base.vertices, tuple(doubled))


def build_preprojective(base: Quiver, weight: Optional[Dict[str, Fraction]] = None,
                        label: str = "") -> AlgebraPresentation:
    """(Deformed) preprojective algebra on the double quiver.

    The single global relation sum(a a* - a* a) - sum(w_i e_i) is split into
    its per-vertex components e_i (...) e_i, which is an equivalent
    generating set sharing endpoints.
    """
    weight = weight or {}
    dq = double_quiver(base)
    rels = []
    for v in base.vertices:
        terms = []
        for a in base.arrows:
            # path a a* passes through vertex t(a); path a* a through s(a)
            if a.target == v:
                terms.append((Fraction(1), arrow_path(a.name, a.name + "*")))
            if a.source == v:
                terms.append((Fraction(-1), arrow_path(a.name + "*", a.name)))
        w = Fraction(weight.get(v, 0))
        if w != 0:
            terms.append((-w, vertex_path(v)))
        if terms:
            rels.append(relation(*terms))
    return validate_presentation(dq, rels, label=label)
