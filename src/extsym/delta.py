"""Evaluation forms of modules as finite signatures.

A module is evaluated on finitely many tests: in flag mode, the Euler
characteristic of its variety of composition chains for every ordered type
with matching total dimension vector; in grassmann mode, the Euler
characteristic of its submodule variety for every dimension vector below
its own.  Equal signatures define the strata used by the multiplication
identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .counting import FlagType, count_flags, count_grassmannian
from .euler import (EulerValue, euler_of, flag_degree_bound,
                    grassmannian_degree_bound, select_primes)
from .modules import RepModule, reduce_module, zero_module


class DeltaError(ValueError):
    pass


def enumerate_flag_types(dims: Sequence[int],
                         simples: Sequence[RepModule]) -> List[Tuple[int, ...]]:
    """All index sequences over the simple list whose dimension vectors sum
    to the target, in lexicographic order."""
    dims = tuple(dims)
    n = len(dims)
    out: List[Tuple[int, ...]] = []

    def rec(remaining, acc):
        if all(r == 0 for r in remaining):
            out.append(tuple(acc))
            return
        for idx, s in enumerate(simples):
            nxt = tuple(r - d for r, d in zip(remaining, s.dims))
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


@dataclass(frozen=True)
class DeltaSignature:
    """Finite evaluation table of one module."""

    label: str
    mode: str                                  # "flag" | "grassmann"
    table: Tuple[Tuple[tuple, EulerValue], ...]

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


_sig_cache: dict = {}


def delta_signature(m_rat: RepModule, mode: str,
                    simples: Sequence[RepModule],
                    label: str = "",
                    primes: Optional[Sequence[int]] = None) -> DeltaSignature:
    """Signature of a rational module, via counting over good primes.

    ``simples`` is only consulted in flag mode (it fixes the type list).
    """
    key = (m_rat.algebra.key(), m_rat.key(), mode,
           tuple(s.key() for s in simples),
           tuple(primes) if primes is not None else None)
    cached = _sig_cache.get(key)
    if cached is not None:
        return cached if not label else DeltaSignature(
            label, cached.mode, cached.table)
    if mode == "flag":
        sig = _flag_signature(m_rat, simples, label, primes)
    elif mode == "grassmann":
        sig = _grassmann_signature(m_rat, label, primes)
    else:
        raise DeltaError(f"unknown signature mode {mode!r}")
    _sig_cache[key] = sig
    return sig


def _flag_signature(m_rat, simples, label, primes):
    bound = flag_degree_bound(m_rat.dims)
    ps = select_primes(m_rat, zero_module(m_rat.algebra, m_rat.field),
                       simples, bound + 2, primes)
    table = []
    for jseq in enumerate_flag_types(m_rat.dims, simples):
        ft = FlagType(jseq, tuple(1 for _ in jseq))

        def counter(p, ft=ft):
            mp = reduce_module(m_rat, p)
            sp = [reduce_module(s, p) for s in simples]
            return count_flags(mp, ft, sp)

        ev = euler_of(f"{label or 'module'} chains {jseq}", counter,
                      bound, ps)
        table.append((jseq, ev))
    return DeltaSignature(label, "flag", tuple(table))


def _grassmann_signature(m_rat, label, primes):
    table = []
    for e in all_dim_vectors(m_rat.dims):
        bound = grassmannian_degree_bound(m_rat.dims, e)
        ps = select_primes(m_rat, zero_module(m_rat.algebra, m_rat.field),
                           (), bound + 2, primes)

        def counter(p, e=e):
            return count_grassmannian(reduce_module(m_rat, p), e)

        ev = euler_of(f"{label or 'module'} submodules {e}", counter,
                      bound, ps)
        table.append((e, ev))
    return DeltaSignature(label, "grassmann", tuple(table))


def stratify_by_signature(catalog: Dict[str, RepModule],
                          simples: Sequence[RepModule],
                          mode: str = "flag",
                          primes: Optional[Sequence[int]] = None
                          ) -> List[List[str]]:
    """Partition equal-dimension catalog entries into classes of equal
    signature.  Returns label groups; first label of each group is the
    representative."""
    groups: List[Tuple[DeltaSignature, tuple, List[str]]] = []
    for lab in catalog:
        m = catalog[lab]
        sig = delta_signature(m, mode, simples, label=lab, primes=primes)
        for gsig, gdims, labels in groups:
            if gdims == m.dims and gsig == sig:
                labels.append(lab)
                break
        else:
            groups.append((sig, m.dims, [lab]))
    return [labels for _, _, labels in groups]


@dataclass(frozen=True)
class MultiplicativityReport:
    per_type: Tuple[Tuple[tuple, int, int], ...]  # (type, combined, product)

    @property
    def passed(self) -> bool:
        return all(a == b for _, a, b in self.per_type)


def check_delta_multiplicativity(m_rat: RepModule, n_rat: RepModule,
                                 simples: Sequence[RepModule],
                                 primes: Optional[Sequence[int]] = None
                                 ) -> MultiplicativityReport:
    """Chain counts of a direct sum split as sums over complementary 0/1
    multiplicity vectors of products of the summands' chain counts."""
    from .modules import direct_sum
    combined = direct_sum(m_rat, n_rat)
    dims = combined.dims
    bound = flag_degree_bound(dims)
    ps = select_primes(combined, zero_module(combined.algebra, combined.field),
                       list(simples) + [m_rat, n_rat], bound + 2, primes)
    rows = []
    for jseq in enumerate_flag_types(dims, simples):
        ft_full = FlagType(jseq, tuple(1 for _ in jseq))

        def count_full(p, ft=ft_full):
            return count_flags(reduce_module(combined, p), ft,
                               [reduce_module(s, p) for s in simples])

        lhs = euler_of(f"sum chains {jseq}", count_full, bound, ps).value
        rhs = 0
        for cm in itertools.product((0, 1), repeat=len(jseq)):
            cn = tuple(1 - c for c in cm)
            ftm = FlagType(jseq, cm)
            ftn = FlagType(jseq, cn)
            if ftm.dims_dropped(simples) != m_rat.dims:
                continue
            if ftn.dims_dropped(simples) != n_rat.dims:
                continue

            def count_m(p, ft=ftm):
                return count_flags(reduce_module(m_rat, p), ft,
                                   [reduce_module(s, p) for s in simples])

            def count_n(p, ft=ftn):
                return count_flags(reduce_module(n_rat, p), ft,
                                   [reduce_module(s, p) for s in simples])

            bm = flag_degree_bound(m_rat.dims)
            bn = flag_degree_bound(n_rat.dims)
            vm = euler_of(f"left chains {jseq}|{cm}", count_m, bm,
                          ps[:bm + 2]).value
            vn = euler_of(f"right chains {jseq}|{cn}", count_n, bn,
                          ps[:bn + 2]).value
            rhs += vm * vn
        rows.append((jseq, lhs, rhs))
    return MultiplicativityReport(tuple(rows))
