"""Exact dense linear algebra over the rationals and prime fields.

Matrices carry their shape explicitly (zero-dimensional vertex spaces are
everywhere in this problem, so ``len(rows)`` is not enough).  Subspaces are
identified with their reduced-row-echelon bases, which makes equality and
dedup canonical.

Over GF(p) the products and eliminations run on plain int rows through the
private ``_gf_*`` helpers below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .fields import GF


class LinAlgError(ValueError):
    pass


@dataclass(frozen=True)
class Mat:
    """Immutable dense matrix with explicit shape."""

    rows: tuple
    nrows: int
    ncols: int

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ncols: Optional[int] = None) -> "Mat":
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols_ = len(rows[0])
            if any(len(r) != ncols_ for r in rows):
                raise LinAlgError("ragged rows")
            if ncols is not None and ncols != ncols_:
                raise LinAlgError("ncols mismatch")
            ncols = ncols_
        elif ncols is None:
            raise LinAlgError("empty matrix needs explicit ncols")
        return Mat(rows, len(rows), ncols)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __iter__(self):
        return iter(self.rows)


def transpose(m: Mat) -> Mat:
    if m.nrows == 0:
        return Mat(tuple(() for _ in range(m.ncols)), m.ncols, 0)
    return Mat(tuple(zip(*m.rows)), m.ncols, m.nrows)


def zeros(field, nrows: int, ncols: int) -> Mat:
    z = field.zero
    return Mat(tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)),
               nrows, ncols)


def identity(field, n: int) -> Mat:
    o, z = field.one, field.zero
    return Mat(tuple(tuple(o if i == j else z for j in range(n))
                     for i in range(n)), n, n)


def mat_from_fractions(field, rows: Sequence[Sequence[Fraction]],
                       ncols: Optional[int] = None) -> Mat:
    conv = field.from_fraction
    rows = tuple(tuple(conv(Fraction(v)) for v in r) for r in rows)
    if rows:
        return Mat.from_rows(rows)
    if ncols is None:
        raise LinAlgError("empty matrix needs explicit ncols")
    return Mat((), 0, ncols)


def mat_mul(field, a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise LinAlgError(f"shape mismatch {a.nrows}x{a.ncols} * {b.nrows}x{b.ncols}")
    if a.nrows == 0 or b.ncols == 0:
        return zeros(field, a.nrows, b.ncols)
    if a.ncols == 0:
        return zeros(field, a.nrows, b.ncols)
    if isinstance(field, GF):
        return Mat(_gf_matmul(a.rows, b.rows, field.p), a.nrows, b.ncols)
    add, mul, z = field.add, field.mul, field.zero
    bt = list(zip(*b.rows))
    out = []
    for ar in a.rows:
        row = []
        for bc in bt:
            acc = z
            for x, y in zip(ar, bc):
                acc = add(acc, mul(x, y))
            row.append(acc)
        out.append(tuple(row))
    return Mat(tuple(out), a.nrows, b.ncols)


def mat_add(field, a: Mat, b: Mat) -> Mat:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise LinAlgError("shape mismatch in add")
    return Mat(tuple(tuple(field.add(x, y) for x, y in zip(ra, rb))
                     for ra, rb in zip(a.rows, b.rows)), a.nrows, a.ncols)


def mat_scale(field, c, a: Mat) -> Mat:
    return Mat(tuple(tuple(field.mul(c, x) for x in r) for r in a.rows),
               a.nrows, a.ncols)


def mat_vec(field, a: Mat, v: Sequence) -> tuple:
    if a.ncols != len(v):
        raise LinAlgError("shape mismatch in mat_vec")
    add, mul, z = field.add, field.mul, field.zero
    out = []
    for r in a.rows:
        acc = z
        for x, y in zip(r, v):
            acc = add(acc, mul(x, y))
        out.append(acc)
    return tuple(out)


def hstack(field, mats: Sequence[Mat]) -> Mat:
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise LinAlgError("hstack row mismatch")
    rows = tuple(tuple(itertools.chain.from_iterable(m.rows[i] for m in mats))
                 for i in range(nrows))
    return Mat(rows, nrows, sum(m.ncols for m in mats))


def vstack(field, mats: Sequence[Mat]) -> Mat:
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise LinAlgError("vstack col mismatch")
    rows = tuple(itertools.chain.from_iterable(m.rows for m in mats))
    return Mat(rows, sum(m.nrows for m in mats), ncols)


# ---------------------------------------------------------------------------
# F_p kernels on int rows already reduced mod p.  They call only each other,
# never the public functions below, so one public call stays one call for
# anything that wraps or counts those.


def _gf_matmul(a, b, p) -> tuple:
    m = len(b[0])
    out = []
    for ai in a:
        row = [0] * m
        for ait, bt in zip(ai, b):
            if ait:
                for j in range(m):
                    row[j] += ait * bt[j]
        out.append(tuple(v % p for v in row))
    return tuple(out)


def _gf_rref(mat, p):
    """Nonzero rows of the reduced row echelon form, and the pivot columns."""
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if rows[i][c] % p:
                piv = i
                break
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c] % p, p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                ri = rows[i]
                rr = rows[r]
                rows[i] = [(ri[j] - f * rr[j]) % p for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def _gf_kernel(mat, ncols, p):
    """Canonical (RREF) basis of the right kernel of ``mat``."""
    red, pivots = _gf_rref(mat, p)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-red[i][fc]) % p
        basis.append(vec)
    if not basis:
        return []
    return _gf_rref(basis, p)[0]


# ---------------------------------------------------------------------------
# Echelon forms, kernels, solving


def rref(field, a: Mat):
    """Reduced row echelon form; returns (Mat of nonzero rows, pivots)."""
    if isinstance(field, GF):
        rows, pivots = _gf_rref(a.rows, field.p)
        return Mat(tuple(tuple(r) for r in rows), len(rows), a.ncols), tuple(pivots)
    rows = [list(r) for r in a.rows]
    nrows, ncols = a.nrows, a.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if not field.is_zero(rows[i][c]):
                piv = i
                break
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Mat(tuple(tuple(row) for row in rows[:r]), r, ncols), tuple(pivots)


def rank(field, a: Mat) -> int:
    if isinstance(field, GF):
        if a.nrows == 0 or a.ncols == 0:
            return 0
        return len(_gf_rref(a.rows, field.p)[0])
    return rref(field, a)[0].nrows


def integer_rank_minor(rows: Sequence[Sequence[int]], ncols: int):
    """Rank r of an integer matrix and the absolute value of one nonzero
    r x r minor of it (1 when r = 0).

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): after each
    pivot step every entry below is a minor of the matrix, so the divisions
    are exact and the last pivot is the minor on the pivot rows and columns.
    Reduction mod p keeps the rank when p does not divide that minor.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        lead = top[c]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            a[i] = [(lead * x - f * y) // prev for x, y in zip(row, top)]
        prev = lead
        r += 1
        if r == nrows:
            break
    return r, abs(prev)


def kernel_basis(field, a: Mat) -> Mat:
    """Canonical RREF basis (rows) of the right kernel of ``a``."""
    if a.ncols == 0:
        return Mat((), 0, 0)
    if a.nrows == 0:
        return identity(field, a.ncols)
    if isinstance(field, GF):
        rows = _gf_kernel(a.rows, a.ncols, field.p)
        return Mat(tuple(tuple(r) for r in rows), len(rows), a.ncols)
    red, pivots = rref(field, a)
    pivset = set(pivots)
    free = [c for c in range(a.ncols) if c not in pivset]
    basis = []
    for fc in free:
        vec = [field.zero] * a.ncols
        vec[fc] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(red.rows[i][fc])
        basis.append(tuple(vec))
    if not basis:
        return Mat((), 0, a.ncols)
    return rref(field, Mat.from_rows(basis))[0]


def solve(field, a: Mat, b: Sequence):
    """One solution of a x = b, or None if inconsistent."""
    if len(b) != a.nrows:
        raise LinAlgError("rhs length mismatch")
    aug = Mat(tuple(r + (v,) for r, v in zip(a.rows, b)), a.nrows, a.ncols + 1) \
        if a.nrows else Mat((), 0, a.ncols + 1)
    red, pivots = rref(field, aug)
    if a.ncols in pivots:
        return None
    x = [field.zero] * a.ncols
    for i, pc in enumerate(pivots):
        x[pc] = red.rows[i][a.ncols]
    return tuple(x)


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient, canonically the RREF basis of rows."""

    field: object
    ambient: int
    mat: Mat
    pivots: tuple

    @property
    def dim(self) -> int:
        return self.mat.nrows

    def key(self):
        return (self.ambient, self.mat.rows)


def span(field, vectors: Sequence[Sequence], ambient: int) -> Subspace:
    m = Mat.from_rows(vectors, ncols=ambient) if vectors else Mat((), 0, ambient)
    red, pivots = rref(field, m)
    return Subspace(field, ambient, red, pivots)


def zero_space(field, n: int) -> Subspace:
    return Subspace(field, n, Mat((), 0, n), ())


def reduce_against(field, sub: Subspace, vec: Sequence) -> tuple:
    """Residue of ``vec`` after subtracting its projection onto ``sub``.

    With an RREF basis the coordinate along row i is just vec[pivot_i].
    """
    v = list(vec)
    for i, pc in enumerate(sub.pivots):
        c = v[pc]
        if not field.is_zero(c):
            row = sub.mat.rows[i]
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def contains_vector(field, sub: Subspace, vec: Sequence) -> bool:
    return all(field.is_zero(x) for x in reduce_against(field, sub, vec))


def coords_in(field, sub: Subspace, vec: Sequence):
    """Coordinates of vec in the RREF basis of sub, or None."""
    coords = tuple(vec[pc] for pc in sub.pivots)
    if not all(field.is_zero(x) for x in reduce_against(field, sub, vec)):
        return None
    return coords


def subspace_sum(field, a: Subspace, b: Subspace) -> Subspace:
    return span(field, list(a.mat.rows) + list(b.mat.rows), a.ambient)


def subspace_intersection(field, a: Subspace, b: Subspace) -> Subspace:
    # kernel of [A^T | B^T] gives coefficient pairs with equal combinations
    if a.dim == 0 or b.dim == 0:
        return zero_space(field, a.ambient)
    stacked = vstack(field, [a.mat, mat_scale(field, field.neg(field.one), b.mat)])
    k = kernel_basis(field, transpose(stacked))
    vecs = []
    for row in k.rows:
        coeffs = row[:a.dim]
        vec = [field.zero] * a.ambient
        for c, basis_row in zip(coeffs, a.mat.rows):
            if not field.is_zero(c):
                vec = [field.add(x, field.mul(c, y)) for x, y in zip(vec, basis_row)]
        vecs.append(tuple(vec))
    return span(field, vecs, a.ambient)


# ---------------------------------------------------------------------------
# Enumeration over F_q


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(n: int, k: int, q: int) -> Iterator[Subspace]:
    """All k-dim subspaces of F_q^n, one canonical RREF representative each.

    Streams echelon patterns: choose pivot columns, then fill the free
    entries (right of each pivot, off the other pivot columns).
    """
    field = GF(q)
    if k == 0:
        yield zero_space(field, n)
        return
    if k > n:
        return
    for pivots in itertools.combinations(range(n), k):
        pivset = set(pivots)
        free_slots = []
        for i, pc in enumerate(pivots):
            for c in range(pc + 1, n):
                if c not in pivset:
                    free_slots.append((i, c))
        for values in itertools.product(range(q), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, c), v in zip(free_slots, values):
                rows[i][c] = v
            mat = Mat(tuple(tuple(r) for r in rows), k, n)
            yield Subspace(field, n, mat, tuple(pivots))


def reduce_mod_p(rows: Sequence[Sequence[Fraction]], p: int,
                 ncols: Optional[int] = None) -> Mat:
    """Entrywise reduction of a rational matrix mod p.

    Raises FieldError("bad prime ...") when a denominator vanishes mod p.
    """
    return mat_from_fractions(GF(p), rows, ncols=ncols)


def mat_inv(field, a: Mat) -> Optional[Mat]:
    """Inverse of a square matrix, or None if singular."""
    if a.nrows != a.ncols:
        raise LinAlgError("inverse of non-square matrix")
    n = a.nrows
    if n == 0:
        return Mat((), 0, 0)
    aug = hstack(field, [a, identity(field, n)])
    red, pivots = rref(field, aug)
    if tuple(pivots) != tuple(range(n)):
        return None
    return Mat(tuple(r[n:] for r in red.rows), n, n)
