"""Point counts over prime fields.

Everything here counts finite sets attached to modules over GF(p):
submodules with a fixed dimension vector, chains of submodules with simple
quotients in a prescribed order, orbit strata of extension classes, and the
correction-term count pairing submodule pairs with extension data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

from .ext import beta_map, ext1_space, image_first_block_dim, middle_term
from .linalg import (contains_vector, enumerate_subspaces, identity,
                     kernel_basis, mat_vec, span)
# unused here; perfbench/tests/test_tracing.py checks the tracer wraps it
from .linalg import rref  # noqa: F401
from .modules import (ModuleError, RepModule, hom_basis, hom_combination,
                      hom_dim, is_isomorphic, sub_quotient, witness_from_rows)


class CountError(ValueError):
    pass


@dataclass(frozen=True)
class CountSeries:
    """Point counts of one family over several primes."""

    label: str
    samples: Tuple[Tuple[int, int], ...]   # (prime, count)
    degree_bound: int

    def __post_init__(self):
        qs = [q for q, _ in self.samples]
        if len(set(qs)) != len(qs):
            raise CountError("duplicate sample primes")
        if any(c < 0 for _, c in self.samples):
            raise CountError("negative count")


# ---------------------------------------------------------------------------
# Submodules with a fixed dimension vector


def _witness_is_stable(m: RepModule, rows_by_vertex) -> bool:
    """Whether per-vertex subspaces are preserved by every arrow map."""
    field = m.field
    q = m.algebra.quiver
    spaces = []
    for i, rows in enumerate(rows_by_vertex):
        spaces.append(span(field, rows, m.dims[i]))
    for ai, arr in enumerate(q.arrows):
        s = q.vertex_index(arr.source)
        t = q.vertex_index(arr.target)
        for row in rows_by_vertex[s]:
            img = mat_vec(field, m.matrices[ai], row)
            if not contains_vector(field, spaces[t], img):
                return False
    return True


def iter_submodules(m: RepModule,
                    edims: Sequence[int]) -> Iterator[Tuple[Tuple, ...]]:
    """All submodules of a GF(p) module with the given dimension vector,
    as per-vertex row tuples (canonical echelon bases)."""
    field = m.field
    p = getattr(field, "p", None)
    if p is None:
        raise CountError("submodule enumeration requires a prime field")
    if len(edims) != len(m.dims):
        raise CountError("dimension vector length mismatch")
    for e, d in zip(edims, m.dims):
        if e < 0 or e > d:
            return
    per_vertex = [list(enumerate_subspaces(m.dims[i], edims[i], p))
                  for i in range(len(m.dims))]
    for combo in itertools.product(*per_vertex):
        rows_by_vertex = tuple(tuple(sub.mat.rows) for sub in combo)
        if _witness_is_stable(m, rows_by_vertex):
            yield rows_by_vertex


def count_grassmannian(m: RepModule, edims: Sequence[int]) -> int:
    """Number of submodules of a GF(p) module with dimension vector e."""
    return sum(1 for _ in iter_submodules(m, edims))


# ---------------------------------------------------------------------------
# Flags with prescribed simple quotients


@dataclass(frozen=True)
class FlagType:
    """Ordered quotient prescription.

    Step k of a matching chain M_{k-1} >= M_k has quotient isomorphic to
    c[k] copies of the simple with index j[k]; multiplicities are 0 or 1,
    a zero meaning the step repeats the module.
    """

    j: Tuple[int, ...]
    c: Tuple[int, ...]

    def __post_init__(self):
        if len(self.j) != len(self.c):
            raise CountError("flag type index/multiplicity length mismatch")
        for ck in self.c:
            if ck not in (0, 1):
                raise CountError("flag steps drop at most one simple")

    @property
    def length(self) -> int:
        return len(self.j)

    def dims_dropped(self, simples: Sequence[RepModule]):
        """Total dimension vector removed across all steps."""
        n = len(simples[0].dims)
        tot = [0] * n
        for idx, ck in zip(self.j, self.c):
            if ck:
                for i in range(n):
                    tot[i] += simples[idx].dims[i]
        return tuple(tot)


def _normalized_classes(field, dim: int):
    """Nonzero coordinate tuples with first nonzero entry 1: one per line,
    (p^dim - 1)/(p - 1) of them times (p - 1) scalings collapsed."""
    p = field.p
    for lead in range(dim):
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            coords = [field.zero] * lead + [field.one] + \
                     [field.from_int(t) for t in tail]
            yield tuple(coords)


def _quotient_kernels(m: RepModule, simple: RepModule):
    """Canonical submodule witnesses K <= M with M/K isomorphic to a given
    simple, via kernels of nonzero maps M -> S.

    Distinct surjections with equal kernels are deduplicated by the
    canonical echelon form of the kernel rows.
    """
    field = m.field
    basis = hom_basis(m, simple).basis
    seen = set()
    # nonzero maps up to scalar
    for coeffs in _normalized_classes(field, len(basis)):
        phi = hom_combination(field, basis, coeffs)
        kern_rows = []
        ok = True
        for i in range(len(m.dims)):
            blk = phi[i]
            if simple.dims[i] and blk.nrows:
                kb = kernel_basis(field, blk)
                if kb.nrows == m.dims[i]:  # not surjective at vertex
                    ok = False
                    break
                kern_rows.append(tuple(kb.rows))
            else:
                kern_rows.append(tuple(identity(field, m.dims[i]).rows))
        if not ok:
            continue
        key = tuple(kern_rows)
        if key in seen:
            continue
        seen.add(key)
        yield kern_rows


_flag_count_cache: dict = {}


def count_flags(m: RepModule, flag_type: FlagType,
                simples: Sequence[RepModule]) -> int:
    """Number of chains of submodules with the prescribed simple quotients.

    Chains run all the way to zero; the flag type must drop exactly the
    dimension vector of the module.  Counted without materializing the
    chains: the tail count below a submodule depends only on the module
    itself, and the canonical bases produced by the kernel recursion make
    equal submodule presentations literally equal, so tail counts are
    shared through a cache keyed by (module, remaining type).
    """
    if flag_type.dims_dropped(simples) != m.dims:
        raise CountError(
            f"flag type drops {flag_type.dims_dropped(simples)}, "
            f"module has dimension vector {m.dims}")
    skeys = tuple(s.key() for s in simples)

    def rec(current: RepModule, k: int) -> int:
        if k == flag_type.length:
            return 1
        idx, c = flag_type.j[k], flag_type.c[k]
        if c == 0:
            return rec(current, k + 1)
        key = (current.key(), flag_type.j[k:], flag_type.c[k:], skeys)
        cached = _flag_count_cache.get(key)
        if cached is None:
            cached = 0
            for kern_rows in _quotient_kernels(current, simples[idx]):
                wit = witness_from_rows(current, kern_rows)
                sub, _, _, _ = sub_quotient(current, wit)
                cached += rec(sub, k + 1)
            if len(_flag_count_cache) > 200000:
                _flag_count_cache.clear()
            _flag_count_cache[key] = cached
        return cached

    return rec(m, 0)


# ---------------------------------------------------------------------------
# Strata of the projectivized extension space


def stratify_ext_classes(m: RepModule, n: RepModule,
                         catalog: Dict[str, RepModule]) -> Dict[str, int]:
    """Partition the nonzero classes of Ext^1(M, N), up to scalar, by the
    isomorphism type of the middle term.

    Counts are numbers of lines; every middle term must match a catalog
    entry, otherwise the catalog is reported incomplete.
    """
    space = ext1_space(m, n)
    field = m.field
    mid_dims = tuple(a + b for a, b in zip(m.dims, n.dims))
    counts: Dict[str, int] = {lab: 0 for lab, c in catalog.items()
                              if c.dims == mid_dims}
    matched_cache: Dict[str, str] = {}
    for coords in _normalized_classes(field, space.dim):
        mid, _, _ = middle_term(space, coords)
        label = matched_cache.get(mid.key())
        if label is None:
            label = _match_catalog(mid, catalog)
            matched_cache[mid.key()] = label
        counts[label] = counts.get(label, 0) + 1
    q = field.p
    expected = (q ** space.dim - 1) // (q - 1) if space.dim else 0
    if sum(counts.values()) != expected:
        raise CountError("stratification total mismatch")
    return counts


_rank_profile_cache: dict = {}


def _arrow_rank_profile(m: RepModule):
    from .linalg import rank
    key = m.key()
    prof = _rank_profile_cache.get(key)
    if prof is None:
        prof = tuple(rank(m.field, a) for a in m.matrices)
        if len(_rank_profile_cache) > 200000:
            _rank_profile_cache.clear()
        _rank_profile_cache[key] = prof
    return prof


def _match_catalog(mid: RepModule, catalog: Dict[str, RepModule]) -> str:
    # arrow ranks are isomorphism invariants: a cheap sound prefilter
    profile = _arrow_rank_profile(mid)
    candidates = [(lab, c) for lab, c in catalog.items()
                  if c.dims == mid.dims
                  and _arrow_rank_profile(c) == profile]
    for lab, c in candidates:
        iso, _ = is_isomorphic(mid, c)
        if iso:
            return lab
    raise CountError(
        f"catalog incomplete: no entry matches a middle term with "
        f"dimension vector {mid.dims}")


# ---------------------------------------------------------------------------
# Correction term: pairs (submodule, quotient data) weighted by extensions


def count_efg_split(n: RepModule, m: RepModule,
                    edims_m: Sequence[int], edims_n: Sequence[int]) -> int:
    """Correction-set point count for one split e = e1 + e2.

    Tuples (M1, N1, class up to scalar, compatible subspace of the middle
    term) where M1 <= M has dimension vector edims_m, N1 <= N has edims_n,
    and the nonzero class of Ext^1(N, M) lies in the first-summand slice of
    the image of the paired transport map.  The compatible subspaces of a
    fixed representative form an affine space of dimension hom(M1, N/N1),
    so the total is

        sum over (M1, N1) of (q^w - 1)/(q - 1) * q^h,

    with w the dimension of that first-summand slice.
    """
    field = m.field
    q = field.p
    total = 0
    if any(e < 0 or e > d for e, d in zip(edims_m, m.dims)):
        return 0
    if any(e < 0 or e > d for e, d in zip(edims_n, n.dims)):
        return 0
    n1_list = list(iter_submodules(n, edims_n))
    m1_list = list(iter_submodules(m, edims_m))
    if not n1_list or not m1_list:
        return 0
    for n1_rows in n1_list:
        n1_wit = witness_from_rows(n, n1_rows)
        n1, n_quot, n1_incl, _ = sub_quotient(n, n1_wit)
        for m1_rows in m1_list:
            m1_wit = witness_from_rows(m, m1_rows)
            m1, _, m1_incl, _ = sub_quotient(m, m1_wit)
            bp = beta_map(n, m, n1, n1_incl, m1, m1_incl)
            w = image_first_block_dim(field, bp.matrix, bp.dst_nm.dim)
            if w == 0:
                continue
            h = hom_dim(m1, n_quot)
            total += ((q ** w - 1) // (q - 1)) * (q ** h)
    return total


def count_efg(n: RepModule, m: RepModule, edims: Sequence[int]) -> int:
    """Point count of the full correction set at one dimension vector,
    summed over all splits e = e1 + e2 with e1 inside M and e2 inside N."""
    total = 0
    ranges = [range(0, min(e, dm) + 1) for e, dm in zip(edims, m.dims)]
    for e1 in itertools.product(*ranges):
        e2 = tuple(e - a for e, a in zip(edims, e1))
        if any(b < 0 or b > dn for b, dn in zip(e2, n.dims)):
            continue
        total += count_efg_split(n, m, e1, e2)
    return total


# ---------------------------------------------------------------------------
# Prime screening


def good_prime_for_pairs(pairs: Sequence[Tuple[RepModule, RepModule]],
                         p: int) -> bool:
    """Whether reduction mod p preserves the Hom and Ext dimensions of the
    given rational module pairs (and the reductions themselves exist)."""
    from .ext import ext_dim
    from .modules import reduce_module
    from .fields import FieldError
    red: Dict[str, RepModule] = {}
    try:
        for a, b in pairs:
            for x in (a, b):
                if x.key() not in red:
                    red[x.key()] = reduce_module(x, p)
    except (FieldError, ModuleError):
        return False
    for a, b in pairs:
        ra, rb = red[a.key()], red[b.key()]
        if hom_dim(a, b) != hom_dim(ra, rb):
            return False
        if ext_dim(a, b) != ext_dim(ra, rb):
            return False
    return True


def good_prime(m_rat: RepModule, n_rat: RepModule, p: int,
               extra: Sequence[RepModule] = ()) -> bool:
    """Whether reduction mod p preserves the homological dimensions that the
    counting pipeline relies on: both directions and endomorphisms of the
    main pair, endomorphisms of every auxiliary module, and Hom/Ext between
    each auxiliary module and the main pair."""
    pairs = [(m_rat, n_rat), (n_rat, m_rat), (m_rat, m_rat),
             (n_rat, n_rat)]
    for x in extra:
        pairs.extend([(x, x), (x, m_rat), (m_rat, x), (x, n_rat),
                      (n_rat, x)])
    return good_prime_for_pairs(pairs, p)
