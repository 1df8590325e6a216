"""Quivers, paths, relations and algebra presentations.

Path composition convention: a path (a1, ..., am) acts as the matrix
product x_{a1} x_{a2} ... x_{am}, i.e. the leftmost arrow is applied last.
Consequently source(p) = s(am) and target(p) = t(a1), and consecutive
arrows must satisfy s(a_k) = t(a_{k+1}).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple


class AlgebraError(ValueError):
    pass


class Arrow:
    __slots__ = ("name", "source", "target")

    def __init__(self, name: str, source: str, target: str):
        self.name = name
        self.source = source
        self.target = target

    def __eq__(self, other):
        if other.__class__ is not Arrow:
            return NotImplemented
        return (self.name, self.source, self.target) == \
            (other.name, other.source, other.target)

    def __hash__(self):
        return hash((self.name, self.source, self.target))


class Quiver:
    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: Tuple[str, ...], arrows: Tuple[Arrow, ...]):
        self.vertices = vertices
        self.arrows = arrows
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

    def __eq__(self, other):
        if other.__class__ is not Quiver:
            return NotImplemented
        return (self.vertices, self.arrows) == (other.vertices, other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

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


class Path:
    """Either a vertex path (length 0) or a nonempty arrow-name sequence."""

    __slots__ = ("vertex", "arrows")

    def __init__(self, vertex: Optional[str] = None,
                 arrows: Tuple[str, ...] = ()):
        if (vertex is None) == (len(arrows) == 0):
            raise AlgebraError("path is either a vertex or a nonempty arrow list")
        self.vertex = vertex
        self.arrows = arrows

    def __eq__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return (self.vertex, self.arrows) == (other.vertex, other.arrows)

    def __hash__(self):
        return hash((self.vertex, self.arrows))

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


class Relation:
    """Nonempty linear combination of paths sharing source and target."""

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Tuple[Fraction, Path], ...]):
        if not terms:
            raise AlgebraError("empty relation")
        for coeff, _ in terms:
            if coeff == 0:
                raise AlgebraError("zero coefficient in relation")
        self.terms = terms

    def __eq__(self, other):
        if other.__class__ is not Relation:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def endpoints(self, quiver: Quiver) -> Tuple[str, str]:
        eps = {path.endpoints(quiver) for _, path in self.terms}
        if len(eps) != 1:
            raise AlgebraError("mixed endpoints in relation")
        return next(iter(eps))


def relation(*terms) -> Relation:
    """Terms as (coefficient, Path); coefficients coerced to Fraction."""
    return Relation(tuple((Fraction(c), p) for c, p in terms))


class AlgebraPresentation:
    __slots__ = ("quiver", "relations", "label", "_key")

    def __init__(self, quiver: Quiver, relations: Tuple[Relation, ...],
                 label: str = ""):
        self.quiver = quiver
        self.relations = relations
        self.label = label
        self._key = None

    def __eq__(self, other):
        if other.__class__ is not AlgebraPresentation:
            return NotImplemented
        return (self.quiver, self.relations, self.label) == \
            (other.quiver, other.relations, other.label)

    def __hash__(self):
        return hash((self.quiver, self.relations, self.label))

    def key(self) -> str:
        """The presentation as a string, computed once per object."""
        cached = self._key
        if cached is None:
            parts = [",".join(self.quiver.vertices),
                     ";".join(f"{a.name}:{a.source}>{a.target}"
                              for a in self.quiver.arrows)]
            for rel in self.relations:
                parts.append("|".join(
                    f"{c}*{'v' + p.vertex if p.is_vertex else '.'.join(p.arrows)}"
                    for c, p in rel.terms))
            cached = self._key = "&".join(parts)
        return cached


def validate_presentation(quiver: Quiver, relations: Sequence[Relation],
                          label: str = "") -> AlgebraPresentation:
    for rel in relations:
        rel.endpoints(quiver)          # raises on mixed endpoints
    return AlgebraPresentation(quiver, tuple(relations), label)


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
