"""Evaluation forms of modules as finite signatures.

A module is evaluated on finitely many tests: in flag mode, the Euler
characteristic of its variety of composition chains for every ordered type
with matching total dimension vector; in grassmann mode, the Euler
characteristic of its submodule variety for every dimension vector below
its own.  Equal signatures define the strata used by the multiplication
identities.

Both forms are multiplicative on direct sums (``convolve``).  Under a
catalog that names its indecomposables, ``evaluation_form`` reads the form
of a module as the convolution of its named summands' counted forms;
``delta_signature`` and ``slot_value`` always count points.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from . import memo
from .counting import count_flags, count_grassmannian, named_summands
from .euler import (EulerValue, euler_of, flag_degree_bound,
                    grassmannian_degree_bound, select_primes)
from .modules import (RepModule, named_indecomposables, reduce_module,
                      zero_module)


class DeltaError(ValueError):
    pass


def enumerate_flag_types(dims: Sequence[int],
                         simples: Sequence[RepModule]) -> List[Tuple[int, ...]]:
    """All index sequences over the simple list whose dimension vectors sum
    to the target, in lexicographic order.  A zero module in the list
    would give types of every length, so it is refused.  The list is
    memoised by the dimension vectors and shared: do not change it."""
    zero = [str(i) for i, s in enumerate(simples) if s.is_zero()]
    if zero:
        raise DeltaError("the list of simples holds a zero module at index "
                         + ", ".join(zero))
    return _flag_types(tuple(dims), tuple(s.dims for s in simples))


@memo.cached(lambda dims, vecs: (dims, vecs))
def _flag_types(dims, vecs):
    out: List[Tuple[int, ...]] = []

    def rec(remaining, acc):
        if all(r == 0 for r in remaining):
            out.append(tuple(acc))
            return
        for idx, d in enumerate(vecs):
            nxt = tuple(r - v for r, v in zip(remaining, d))
            if any(v < 0 for v in nxt):
                continue
            acc.append(idx)
            rec(nxt, acc)
            acc.pop()

    rec(dims, [])
    return out


def all_dim_vectors(dims: Sequence[int]) -> List[Tuple[int, ...]]:
    return [tuple(e) for e in
            itertools.product(*[range(d + 1) for d in dims])]


class DeltaSignature:
    """Finite evaluation table of one module."""

    __slots__ = ("label", "mode", "table")

    def __init__(self, label: str, mode: str,
                 table: Tuple[Tuple[tuple, EulerValue], ...]):
        self.label = label
        self.mode = mode                  # "flag" | "grassmann"
        self.table = table

    def values(self) -> Dict[tuple, int]:
        return {k: v.value for k, v in self.table}

    def as_dict(self):
        return {"label": self.label, "mode": self.mode,
                "table": [{"type": list(k), **v.as_dict()}
                          for k, v in self.table]}

    def __eq__(self, other):
        if not isinstance(other, DeltaSignature):
            return NotImplemented
        return self.mode == other.mode and self.values() == other.values()

    def __hash__(self):
        return hash((self.mode, tuple(sorted(self.values().items()))))


def delta_signature(m_rat: RepModule, mode: str,
                    simples: Sequence[RepModule],
                    label: str = "",
                    primes: Optional[Sequence[int]] = None) -> DeltaSignature:
    """Signature of a rational module, via counting over good primes.

    ``simples`` is only consulted in flag mode (it fixes the type list).
    """
    sig = _signature(m_rat, mode, simples, label, primes)
    return sig if sig.label == label else DeltaSignature(label, sig.mode,
                                                         sig.table)


@memo.cached(lambda m_rat, mode, simples, label, primes: (
    m_rat.key(), mode,
    tuple(s.key() for s in simples) if mode == "flag" else None,
    tuple(primes) if primes is not None else None))
def _signature(m_rat, mode, simples, label, primes):
    if mode != "flag":
        slots = all_dim_vectors(m_rat.dims)
    else:
        slots = enumerate_flag_types(m_rat.dims, simples)
        if not slots:
            vecs = ", ".join(str(s.dims) for s in simples) or "none"
            raise DeltaError(
                f"{label or 'module'} of dimension vector {m_rat.dims} has "
                f"no flag type: no sequence of the simples' dimension "
                f"vectors ({vecs}) sums to it")
    return DeltaSignature(label, mode, tuple(
        _fit(m_rat, mode, slots, simples, label, primes).items()))


def slot_value(m_rat: RepModule, mode: str, slot: Sequence[int],
               simples: Sequence[RepModule] = (),
               primes: Optional[Sequence[int]] = None) -> EulerValue:
    """Euler characteristic of one slot of the evaluation form of a
    rational module: its chains of one flag type (flag mode) or its
    submodules of one dimension vector (grassmann mode), counted at
    primes screened for this slot's degree bound alone."""
    slot = tuple(slot)
    return _fit(m_rat, mode, [slot], simples, "", primes)[slot]


def _fit(m_rat, mode, slots, simples, label,
         primes) -> Dict[tuple, EulerValue]:
    """Euler characteristic of each slot, in order.  The primes are
    screened once for the largest slot bound, with the simples as
    auxiliary modules in flag mode; each slot is fitted on the first
    bound + 2 of them."""
    if mode == "flag":
        bounds = dict.fromkeys(slots, flag_degree_bound(m_rat.dims))
    elif mode == "grassmann":
        bounds = {e: grassmannian_degree_bound(m_rat.dims, e) for e in slots}
    else:
        raise DeltaError(f"unknown signature mode {mode!r}")
    ps = select_primes(m_rat, zero_module(m_rat.algebra, m_rat.field),
                       simples if mode == "flag" else (),
                       max(bounds.values()) + 2, primes)

    def counter(p, keys):
        m = reduce_module(m_rat, p)
        if mode == "grassmann":
            return {e: count_grassmannian(m, e) for e in keys}
        ss = [reduce_module(s, p) for s in simples]
        return {j: count_flags(m, j, ss) for j in keys}
    what = "chains" if mode == "flag" else "submodules"
    return euler_of(f"{label or 'module'} {what}", counter, bounds, ps)


def convolve(mode: str, a: Dict[tuple, int],
             b: Dict[tuple, int]) -> Dict[tuple, int]:
    """The evaluation form of A + B from the forms of A and B, at the
    slots it reaches (every other slot is 0).

    In grassmann mode chi(Gr_e(A + B)) is the sum over e1 + e2 = e of
    chi(Gr_e1(A)) chi(Gr_e2(B)); in flag mode delta_{A+B}(j) is the sum
    over 0/1 vectors c of delta_A(j|c) delta_B(j|1-c), where j|c keeps the
    steps with c = 1, so each pair of types adds to every interleaving of
    the two.  The torus scaling B fixes exactly the split submodules and
    split chains.
    """
    if mode not in ("flag", "grassmann"):
        raise DeltaError(f"unknown signature mode {mode!r}")
    out: Dict[tuple, int] = {}
    for sa, x in a.items():
        for sb, y in b.items():
            if not (x and y):
                continue
            if mode == "grassmann":
                slots = [tuple(u + v for u, v in zip(sa, sb))]
            else:
                n = len(sa) + len(sb)
                slots = []
                for pos in itertools.combinations(range(n), len(sa)):
                    ia, ib, at = iter(sa), iter(sb), set(pos)
                    slots.append(tuple(next(ia) if k in at else next(ib)
                                       for k in range(n)))
            for slot in slots:
                out[slot] = out.get(slot, 0) + x * y
    return out


def evaluation_form(m_rat: RepModule, mode: str,
                    simples: Sequence[RepModule],
                    catalog: Dict[str, RepModule],
                    primes: Optional[Sequence[int]] = None,
                    label: str = "module") -> Dict[tuple, int]:
    """Value of every slot of the evaluation form of a rational module.

    Under a catalog that names its indecomposables, the convolution of
    the counted forms of the named summands of M (``named_summands``,
    which refuses a module it cannot decompose, naming it by ``label``);
    under any other catalog, the counted form.  The returned table is
    shared: do not change it.
    """
    return _form(m_rat, mode, simples, catalog, primes, label)


@memo.cached(lambda m_rat, mode, simples, catalog, primes, label: (
    m_rat.key(), mode,
    tuple(s.key() for s in simples) if mode == "flag" else None,
    tuple(catalog[lab].key() for lab in named_indecomposables(catalog)),
    tuple(primes) if primes is not None else None))
def _form(m_rat, mode, simples, catalog, primes, label):
    if not named_indecomposables(catalog):
        return delta_signature(m_rat, mode, simples, label, primes).values()
    # the form of the zero module: one empty chain, one zero submodule
    conv = {(): 1} if mode == "flag" else {(0,) * len(m_rat.dims): 1}
    for lab in named_summands(m_rat, catalog, label):
        conv = convolve(mode, conv, delta_signature(
            catalog[lab], mode, simples, lab, primes).values())
    slots = enumerate_flag_types(m_rat.dims, simples) if mode == "flag" \
        else all_dim_vectors(m_rat.dims)
    return {slot: conv.get(slot, 0) for slot in slots}


def stratify_by_signature(catalog: Dict[str, RepModule],
                          simples: Sequence[RepModule],
                          mode: str = "flag",
                          primes: Optional[Sequence[int]] = None,
                          labels: Optional[Sequence[str]] = None
                          ) -> List[List[str]]:
    """Partition equal-dimension catalog entries (those of ``labels``, in
    its order, or every entry) into classes of equal evaluation form, read
    by ``evaluation_form`` under this catalog.  Returns label groups;
    first label of each group is the representative."""
    groups: List[Tuple[Dict[tuple, int], tuple, List[str]]] = []
    for lab in catalog if labels is None else labels:
        m = catalog[lab]
        form = evaluation_form(m, mode, simples, catalog, primes, lab)
        for gform, gdims, members in groups:
            if gdims == m.dims and gform == form:
                members.append(lab)
                break
        else:
            groups.append((form, m.dims, [lab]))
    return [members for _, _, members in groups]


class MultiplicativityReport:
    __slots__ = ("per_type",)

    def __init__(self, per_type: Tuple[Tuple[tuple, int, int], ...]):
        self.per_type = per_type          # (type, combined, product)

    @property
    def passed(self) -> bool:
        return all(a == b for _, a, b in self.per_type)


def check_delta_multiplicativity(m_rat: RepModule, n_rat: RepModule,
                                 simples: Sequence[RepModule],
                                 primes: Optional[Sequence[int]] = None
                                 ) -> MultiplicativityReport:
    """Evaluation forms multiply on direct sums: for every flag type j of
    M + N, the counted delta_{M+N}(j) against the sum over 0/1 vectors c of
    delta_M(j|c) * delta_N(j|1-c) (``convolve``), where j|c keeps the steps
    with c = 1.  The sum is built with its summands in key order (past the
    ring parts), so (M, N) and (N, M) read one memoised form.
    """
    from .modules import direct_sum
    total = direct_sum(*sorted((m_rat, n_rat), key=lambda x: x.key()[2:]))
    full, left, right = (
        delta_signature(x, "flag", simples, primes=primes).values()
        for x in (total, m_rat, n_rat))
    product = convolve("flag", left, right)
    return MultiplicativityReport(tuple(
        (jseq, lhs, product.get(jseq, 0)) for jseq, lhs in full.items()))
