"""Modules over a presented algebra: Hom spaces, sub/quotient structure,
isomorphism testing and composition series.

A RepModule stores its dimension vector and arrow matrices in quiver order,
so equal modules have identical representations and can key caches.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .algebra import AlgebraPresentation, evaluate_relation
from .fields import GF, QQ
from .linalg import (Mat, Subspace, coords_in, kernel_basis, mat_from_fractions,
                     mat_inv, mat_mul, mat_vec, rank, span, zeros)


class ModuleError(ValueError):
    pass


class UndecidableError(RuntimeError):
    """Raised when the finite-field search grid cannot decide a question."""


@dataclass(frozen=True)
class RepModule:
    algebra: AlgebraPresentation
    field: object
    dims: Tuple[int, ...]            # ordered as algebra.quiver.vertices
    matrices: Tuple[Mat, ...]        # ordered as algebra.quiver.arrows

    def dim(self, v: str) -> int:
        return self.dims[self.algebra.quiver.vertex_index(v)]

    def mat(self, arrow_name: str) -> Mat:
        return self.matrices[self.algebra.quiver.arrow_index(arrow_name)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def dims_dict(self) -> Dict[str, int]:
        return dict(zip(self.algebra.quiver.vertices, self.dims))

    def mats_dict(self) -> Dict[str, Mat]:
        return {a.name: m for a, m in zip(self.algebra.quiver.arrows, self.matrices)}

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def key(self):
        cached = getattr(self, "_key", None)
        if cached is None:
            cached = (repr(self.field), self.dims,
                      tuple(tuple(tuple(str(x) for x in r) for r in m.rows)
                            for m in self.matrices))
            object.__setattr__(self, "_key", cached)
        return cached


def check_module(algebra: AlgebraPresentation, field, dims: Dict[str, int],
                 matrices: Dict[str, Mat]) -> RepModule:
    """Validate shapes and all relation residues; return the module."""
    q = algebra.quiver
    dim_list = []
    for v in q.vertices:
        d = dims.get(v, 0)
        if d < 0:
            raise ModuleError(f"negative dimension at vertex {v!r}")
        dim_list.append(d)
    mat_list = []
    for a in q.arrows:
        m = matrices.get(a.name)
        want = (dims.get(a.target, 0), dims.get(a.source, 0))
        if m is None:
            m = zeros(field, *want)
        if (m.nrows, m.ncols) != want:
            raise ModuleError(
                f"matrix for arrow {a.name!r}: shape {m.nrows}x{m.ncols}, "
                f"expected {want[0]}x{want[1]}")
        mat_list.append(m)
    mdict = {a.name: m for a, m in zip(q.arrows, mat_list)}
    ddict = dict(zip(q.vertices, dim_list))
    for idx, rel in enumerate(algebra.relations):
        residue = evaluate_relation(field, q, ddict, mdict, rel)
        for i, row in enumerate(residue.rows):
            for j, x in enumerate(row):
                if not field.is_zero(x):
                    raise ModuleError(
                        f"relation {idx} violated: residue[{i}][{j}] = {x}")
    return RepModule(algebra, field, tuple(dim_list), tuple(mat_list))


def module_from_fractions(algebra: AlgebraPresentation, field,
                          dims: Dict[str, int],
                          matrices: Dict[str, Sequence[Sequence[Fraction]]]) -> RepModule:
    q = algebra.quiver
    mats = {}
    for a in q.arrows:
        rows = matrices.get(a.name, [])
        mats[a.name] = mat_from_fractions(field, rows, ncols=dims.get(a.source, 0)) \
            if rows else zeros(field, dims.get(a.target, 0), dims.get(a.source, 0))
    return check_module(algebra, field, dims, mats)


def zero_module(algebra: AlgebraPresentation, field) -> RepModule:
    q = algebra.quiver
    return RepModule(algebra, field, tuple(0 for _ in q.vertices),
                     tuple(zeros(field, 0, 0) for _ in q.arrows))


def simple_at_vertex(algebra: AlgebraPresentation, field, v: str) -> RepModule:
    """One-dimensional module supported at a single vertex (when it exists)."""
    dims = {u: (1 if u == v else 0) for u in algebra.quiver.vertices}
    return check_module(algebra, field, dims, {})


def direct_sum(m: RepModule, n: RepModule) -> RepModule:
    if m.algebra is not n.algebra and m.algebra != n.algebra:
        raise ModuleError("direct sum across different algebras")
    if m.field != n.field:
        raise ModuleError("direct sum across different fields")
    field = m.field
    q = m.algebra.quiver
    dims = tuple(a + b for a, b in zip(m.dims, n.dims))
    mats = []
    for i, arr in enumerate(q.arrows):
        am, an = m.matrices[i], n.matrices[i]
        rt = dims[q.vertex_index(arr.target)]
        cs = dims[q.vertex_index(arr.source)]
        rows = []
        for r in am.rows:
            rows.append(tuple(r) + tuple(field.zero for _ in range(an.ncols)))
        for r in an.rows:
            rows.append(tuple(field.zero for _ in range(am.ncols)) + tuple(r))
        mats.append(Mat(tuple(rows), rt, cs))
    return RepModule(m.algebra, field, dims, tuple(mats))


def direct_sum_many(algebra, field, mods: Sequence[RepModule]) -> RepModule:
    acc = zero_module(algebra, field)
    for m in mods:
        acc = direct_sum(acc, m)
    return acc


def reduce_module(m: RepModule, p: int) -> RepModule:
    """Reduction mod p of a rational module (validating the relations)."""
    if not isinstance(m.field, QQ):
        raise ModuleError("can only reduce a rational module")
    gf = GF(p)
    mats = {}
    q = m.algebra.quiver
    for a, mat in zip(q.arrows, m.matrices):
        mats[a.name] = mat_from_fractions(gf, mat.rows, ncols=mat.ncols)
    return check_module(m.algebra, gf, m.dims_dict(), mats)


def conjugate(m: RepModule, g: Sequence[Mat]) -> RepModule:
    """Base change by a per-vertex invertible tuple: X_a -> g_t X_a g_s^-1."""
    q = m.algebra.quiver
    field = m.field
    ginv = []
    for gm in g:
        inv = mat_inv(field, gm)
        if inv is None:
            raise ModuleError("conjugating tuple not invertible")
        ginv.append(inv)
    mats = []
    for arr, x in zip(q.arrows, m.matrices):
        t = q.vertex_index(arr.target)
        s = q.vertex_index(arr.source)
        mats.append(mat_mul(field, mat_mul(field, g[t], x), ginv[s]))
    return RepModule(m.algebra, field, m.dims, tuple(mats))


# ---------------------------------------------------------------------------
# Hom spaces


@dataclass(frozen=True)
class HomBasis:
    source: RepModule
    target: RepModule
    basis: Tuple[Tuple[Mat, ...], ...]   # each element: per-vertex matrices

    @property
    def dim(self) -> int:
        return len(self.basis)


def _hom_system(m: RepModule, n: RepModule) -> Tuple[Mat, List[Tuple[int, int, int]]]:
    """Coefficient matrix of the intertwiner equations.

    Unknowns: entries of phi_v (n_v x m_v), row-major, vertices in order.
    Returns the system and the unknown layout [(vertex, rows, cols)].
    """
    q = m.algebra.quiver
    field = m.field
    layout = []
    offsets = []
    total = 0
    for i, v in enumerate(q.vertices):
        r, c = n.dims[i], m.dims[i]
        layout.append((i, r, c))
        offsets.append(total)
        total += r * c
    rows = []
    for ai, arr in enumerate(q.arrows):
        s = q.vertex_index(arr.source)
        t = q.vertex_index(arr.target)
        xm = m.matrices[ai]            # m_t x m_s
        xn = n.matrices[ai]            # n_t x n_s
        # equations: (phi_t xm - xn phi_s)[i][j] = 0,  i < n_t, j < m_s
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [field.zero] * total
                # phi_t[i,k] * xm[k,j]
                for k in range(m.dims[t]):
                    row[offsets[t] + i * m.dims[t] + k] = \
                        field.add(row[offsets[t] + i * m.dims[t] + k], xm.rows[k][j])
                # - xn[i,k] * phi_s[k,j]
                for k in range(n.dims[s]):
                    pos = offsets[s] + k * m.dims[s] + j
                    row[pos] = field.sub(row[pos], xn.rows[i][k])
                rows.append(tuple(row))
    mat = Mat(tuple(rows), len(rows), total)
    return mat, layout


def _unpack_hom(field, vec: Sequence, layout) -> Tuple[Mat, ...]:
    mats = []
    pos = 0
    for _, r, c in layout:
        rows = tuple(tuple(vec[pos + i * c + j] for j in range(c)) for i in range(r))
        mats.append(Mat(rows, r, c))
        pos += r * c
    return tuple(mats)


_hom_cache: dict = {}


def hom_basis(m: RepModule, n: RepModule) -> HomBasis:
    ck = (m.algebra.key(), m.key(), n.key())
    cached = _hom_cache.get(ck)
    if cached is None:
        sys_mat, layout = _hom_system(m, n)
        kern = kernel_basis(m.field, sys_mat)
        basis = tuple(_unpack_hom(m.field, row, layout) for row in kern.rows)
        cached = HomBasis(m, n, basis)
        if len(_hom_cache) > 200000:
            _hom_cache.clear()
        _hom_cache[ck] = cached
    return cached


def hom_dim(m: RepModule, n: RepModule) -> int:
    return hom_basis(m, n).dim


def hom_combination(field, basis: Sequence[Tuple[Mat, ...]], coeffs: Sequence):
    """Per-vertex matrices of sum_k coeffs[k] * basis[k]."""
    nverts = len(basis[0])
    out = []
    for v in range(nverts):
        proto = basis[0][v]
        rows = [[field.zero] * proto.ncols for _ in range(proto.nrows)]
        for c, phis in zip(coeffs, basis):
            if field.is_zero(c):
                continue
            mv = phis[v]
            for i in range(mv.nrows):
                mr = mv.rows[i]
                row = rows[i]
                for j in range(mv.ncols):
                    row[j] = field.add(row[j], field.mul(c, mr[j]))
        out.append(Mat(tuple(tuple(r) for r in rows), proto.nrows, proto.ncols))
    return tuple(out)


# ---------------------------------------------------------------------------
# Deterministic search over a Hom space


def _grid_values(field, side: int):
    if isinstance(field, GF):
        return [x % field.p for x in range(min(side, field.p))]
    return [Fraction(x) for x in range(side)]


_ISO_SEED = 0x2545F4914F6CDD1D


def set_iso_seed(seed: int) -> None:
    """Reseed the scrambled probe sweep used by the isomorphism search.

    Only the order of fast probes changes; the exhaustive fallback keeps
    every result seed-independent.
    """
    global _ISO_SEED
    _ISO_SEED = (0x2545F4914F6CDD1D ^ (seed * 0x9E3779B97F4A7C15)) % (1 << 64)


def _lcg_tuples(nvals: int, h: int, count: int):
    # deterministic scrambled sweep; fixed multiplier/increment
    state = _ISO_SEED
    for _ in range(count):
        out = []
        for _ in range(h):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            out.append((state >> 33) % nvals)
        yield tuple(out)


def search_hom_space(hb: HomBasis, predicate, degree: int):
    """Deterministic search for a basis combination satisfying ``predicate``.

    ``predicate`` must be the non-vanishing locus of some polynomial of
    degree <= ``degree`` in each coefficient (e.g. "all vertex blocks
    invertible", "full column rank"), so a full sweep of a grid with
    degree+1 values per coordinate is a sound decision procedure.  Fast
    deterministic probes run first.

    Returns the per-vertex matrices of a hit, or None.
    """
    field = hb.source.field
    h = hb.dim
    if h == 0:
        return None
    values = _grid_values(field, degree + 1)
    exhaustive_ok = True
    if isinstance(field, GF):
        if field.p >= degree + 1:
            pass                       # grid sweep sound
        elif field.p ** h <= 400000:
            values = list(range(field.p))   # full enumeration, exact
        else:
            exhaustive_ok = False
    # fast probes: basis elements, all-ones, scrambled tuples (lazily,
    # so an early hit never pays for the later probes)
    one, zero = field.one, field.zero
    nv = len(values)
    probes = itertools.chain(
        (tuple(one if i == k else zero for i in range(h)) for k in range(h)),
        (tuple(one for _ in range(h)),),
        (tuple(values[i] for i in tup) for tup in _lcg_tuples(nv, h, 400)))
    seen = set()
    for coeffs in probes:
        if coeffs in seen or all(field.is_zero(c) for c in coeffs):
            continue
        seen.add(coeffs)
        phis = hom_combination(field, hb.basis, coeffs)
        if predicate(phis):
            return phis
    if not exhaustive_ok:
        raise UndecidableError("prime too small to decide")
    if nv ** h > 2_000_000:
        raise UndecidableError("search grid too large to sweep")
    for coeffs in itertools.product(values, repeat=h):
        if all(field.is_zero(c) for c in coeffs) or coeffs in seen:
            continue
        phis = hom_combination(field, hb.basis, coeffs)
        if predicate(phis):
            return phis
    return None


def is_isomorphic(m: RepModule, n: RepModule):
    """(True, per-vertex witness) or (False, None)."""
    if m.dims != n.dims:
        return False, None
    if m.is_zero():
        return True, tuple(zeros(m.field, 0, 0) for _ in m.dims)
    hb = hom_basis(m, n)
    if hb.dim != hom_dim(n, m) or hom_dim(m, m) != hom_dim(n, n):
        return False, None
    field = m.field
    degree = sum(m.dims)

    def invertible(phis):
        return all(phi.nrows == phi.ncols and rank(field, phi) == phi.nrows
                   for phi in phis)

    hit = search_hom_space(hb, invertible, degree)
    if hit is None:
        return False, None
    return True, hit


# ---------------------------------------------------------------------------
# Submodules and quotients


def witness_from_rows(m: RepModule, rows_by_vertex) -> Tuple[Subspace, ...]:
    field = m.field
    return tuple(span(field, rows, m.dims[i])
                 for i, rows in enumerate(rows_by_vertex))


def sub_quotient(m: RepModule, witness: Sequence[Subspace]):
    """Submodule, quotient and the inclusion/projection module maps.

    Bases: the RREF rows of each witness subspace for the submodule, the
    standard vectors at non-pivot coordinates for the quotient.
    Returns (sub, quot, incl per-vertex, proj per-vertex).
    """
    q = m.algebra.quiver
    field = m.field
    if len(witness) != len(q.vertices):
        raise ModuleError("witness must have one subspace per vertex")
    sub_mats = []
    for ai, arr in enumerate(q.arrows):
        s = q.vertex_index(arr.source)
        t = q.vertex_index(arr.target)
        ws, wt = witness[s], witness[t]
        cols = []
        for u in ws.mat.rows:
            img = mat_vec(field, m.matrices[ai], u)
            coords = coords_in(field, wt, img)
            if coords is None:
                raise ModuleError(
                    f"witness not arrow-stable at arrow {arr.name!r}")
            cols.append(coords)
        rows = tuple(tuple(col[i] for col in cols) for i in range(wt.dim))
        sub_mats.append(Mat(rows, wt.dim, ws.dim))
    sub_dims = tuple(w.dim for w in witness)
    sub = RepModule(m.algebra, field, sub_dims, tuple(sub_mats))

    incl = []
    proj = []
    nonpivots = []
    for i, w in enumerate(witness):
        d = m.dims[i]
        incl_rows = tuple(tuple(w.mat.rows[k][r] for k in range(w.dim))
                          for r in range(d))
        incl.append(Mat(incl_rows, d, w.dim))
        np_cols = [c for c in range(d) if c not in set(w.pivots)]
        nonpivots.append(np_cols)
        # projection: reduce against the subspace, then read non-pivot coords
        # proj(v)[k] = v[np_k] - sum_i v[pivot_i] * w[i][np_k]
        pmat = []
        for k, c in enumerate(np_cols):
            row = [field.zero] * d
            row[c] = field.one
            for irow, pc in enumerate(w.pivots):
                row[pc] = field.sub(row[pc], w.mat.rows[irow][c])
            pmat.append(tuple(row))
        proj.append(Mat(tuple(pmat), len(np_cols), d))

    quot_mats = []
    for ai, arr in enumerate(q.arrows):
        s = q.vertex_index(arr.source)
        t = q.vertex_index(arr.target)
        # Q_a = P_t X_a C_s with C_s the complement inclusion
        c_s = Mat(tuple(tuple(field.one if c == col else field.zero
                              for col in nonpivots[s])
                        for c in range(m.dims[s])), m.dims[s], len(nonpivots[s]))
        quot_mats.append(mat_mul(field, proj[t],
                                 mat_mul(field, m.matrices[ai], c_s)))
    quot_dims = tuple(m.dims[i] - witness[i].dim for i in range(len(witness)))
    quot = RepModule(m.algebra, field, quot_dims, tuple(quot_mats))
    return sub, quot, tuple(incl), tuple(proj)


# ---------------------------------------------------------------------------
# Composition series


def find_embedding(s: RepModule, m: RepModule):
    """An injective module map s -> m, or None."""
    if any(ds > dm for ds, dm in zip(s.dims, m.dims)):
        return None
    hb = hom_basis(s, m)
    if hb.dim == 0:
        return None
    field = m.field
    degree = sum(m.dims)

    def injective(phis):
        return all(rank(field, phi) == phi.ncols for phi in phis)

    return search_hom_space(hb, injective, degree)


def composition_series(m: RepModule, simples: Sequence[RepModule]):
    """Greedy socle-up factor list [index into simples, ...] or None.

    None means some nonzero subquotient admits no embedded member of the
    simple set, so (by Jordan-Hoelder) m is not in the subcategory.
    """
    for s in simples:
        end_dim = hom_dim(s, s)
        if end_dim != 1:
            warnings.warn(f"claimed simple has End of dimension {end_dim}",
                          stacklevel=2)
    factors = []
    current = m
    while not current.is_zero():
        hit = None
        for idx, s in enumerate(simples):
            if s.is_zero():
                continue
            phi = find_embedding(s, current)
            if phi is not None:
                hit = (idx, phi)
                break
        if hit is None:
            return None
        idx, phi = hit
        field = current.field
        witness = tuple(
            span(field, [tuple(phi[i].rows[r][c] for r in range(phi[i].nrows))
                         for c in range(phi[i].ncols)], current.dims[i])
            for i in range(len(current.dims)))
        _, quot, _, _ = sub_quotient(current, witness)
        factors.append(idx)
        current = quot
    return factors
