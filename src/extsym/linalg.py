"""Exact dense linear algebra over the rationals and prime fields.

Matrices carry their shape explicitly (zero-dimensional vertex spaces are
everywhere in this problem, so ``len(rows)`` is not enough).  Subspaces are
identified with their reduced-row-echelon bases, which makes equality and
dedup canonical.

Entries are normalised field elements: ints in range(p) over GF(p),
Fractions or ints over Q, so a zero entry is exactly a falsy one.  Each
product and elimination is one loop for both fields.  It uses the native
``+ - *`` and, when ``field.char`` is p, reduces each output entry once
with ``% p``; a pivot's inverse comes from ``field.inv``, once per pivot,
so int-valued input over Q stays exact.  Rows accumulated elsewhere with
the native operations become a matrix through ``normalised``.  Field
entries are reduced mod p here and in ``fields`` only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .fields import GF


class LinAlgError(ValueError):
    pass


class Mat:
    """Immutable dense matrix with explicit shape."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: tuple, nrows: int, ncols: int):
        self.rows = rows
        self.nrows = nrows
        self.ncols = ncols

    def __eq__(self, other):
        if other.__class__ is not Mat:
            return NotImplemented
        return (self.rows, self.nrows, self.ncols) == \
            (other.rows, other.nrows, other.ncols)

    def __hash__(self):
        return hash((self.rows, self.nrows, self.ncols))

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


def normalised(field, rows: Sequence[Sequence], ncols: int) -> Mat:
    """The matrix of rows accumulated with the native ``+ - *``, each
    entry reduced mod p over GF(p) and kept as it is over Q."""
    p = field.char
    rows = tuple(tuple(v % p for v in r) for r in rows) if p \
        else tuple(map(tuple, rows))
    return Mat(rows, len(rows), ncols)


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
    if a.nrows == 0 or b.ncols == 0 or a.ncols == 0:
        return zeros(field, a.nrows, b.ncols)
    m = b.ncols
    out = []
    for ar in a.rows:
        row = [0] * m
        for x, br in zip(ar, b.rows):
            if x:
                for j in range(m):
                    row[j] += x * br[j]
        out.append(row)
    return normalised(field, out, m)


def mat_vec(field, a: Mat, v: Sequence) -> tuple:
    if a.ncols != len(v):
        raise LinAlgError("shape mismatch in mat_vec")
    p = field.char
    out = []
    for r in a.rows:
        acc = 0
        for x, y in zip(r, v):
            acc += x * y
        out.append(acc % p if p else acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# Echelon forms, kernels, solving


def _rref(field, rows, ncols: int):
    """Nonzero rows of the reduced row echelon form of ``rows``, and the
    pivot columns.  It calls no public function, so one public call stays
    one call for anything that wraps or counts those."""
    p = field.char
    rows = list(rows)
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if rows[piv][c]:
                break
        else:
            continue
        top = rows[piv]
        rows[piv] = rows[r]
        inv = field.inv(top[c])
        top = [v * inv % p for v in top] if p else [v * inv for v in top]
        rows[r] = top
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                ri = rows[i]
                rows[i] = [(x - f * y) % p for x, y in zip(ri, top)] if p \
                    else [x - f * y for x, y in zip(ri, top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rref(field, a: Mat):
    """Reduced row echelon form; returns (Mat of nonzero rows, pivots)."""
    rows, pivots = _rref(field, a.rows, a.ncols)
    return Mat(tuple(map(tuple, rows)), len(rows), a.ncols), tuple(pivots)


def rank(field, a: Mat) -> int:
    return len(_rref(field, a.rows, a.ncols)[0])


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
    p = field.char
    red, pivots = _rref(field, a.rows, a.ncols)
    pivset = set(pivots)
    basis = []
    for fc in range(a.ncols):
        if fc in pivset:
            continue
        vec = [0] * a.ncols
        vec[fc] = 1
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc] % p if p else -row[fc]
        basis.append(vec)
    rows = _rref(field, basis, a.ncols)[0]
    return Mat(tuple(map(tuple, rows)), len(rows), a.ncols)


# ---------------------------------------------------------------------------
# Subspaces


class Subspace:
    """A subspace of field^ambient, canonically the RREF basis of rows."""

    __slots__ = ("field", "ambient", "mat", "pivots")

    def __init__(self, field, ambient: int, mat: Mat, pivots: tuple):
        self.field = field
        self.ambient = ambient
        self.mat = mat
        self.pivots = pivots

    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return (self.field, self.ambient, self.mat, self.pivots) == \
            (other.field, other.ambient, other.mat, other.pivots)

    def __hash__(self):
        return hash((self.field, self.ambient, self.mat, self.pivots))

    @property
    def dim(self) -> int:
        return self.mat.nrows


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
    p = field.char
    v = tuple(vec)
    for row, pc in zip(sub.mat.rows, sub.pivots):
        c = v[pc]
        if c:
            v = tuple((x - c * y) % p for x, y in zip(v, row)) if p \
                else tuple(x - c * y for x, y in zip(v, row))
    return v


def quotient_projection(field, sub: Subspace) -> Mat:
    """Matrix of field^ambient -> field^ambient / sub, the quotient with
    the basis of standard vectors at the non-pivot coordinates c_k of sub:
    row k reads v[c_k] - sum_i v[pivot_i] * sub_i[c_k]."""
    p = field.char
    out = []
    for c in range(sub.ambient):
        if c in sub.pivots:
            continue
        row = [0] * sub.ambient
        row[c] = 1
        for srow, pc in zip(sub.mat.rows, sub.pivots):
            row[pc] = -srow[c] % p if p else -srow[c]
        out.append(tuple(row))
    return Mat(tuple(out), len(out), sub.ambient)


def contains_vector(field, sub: Subspace, vec: Sequence) -> bool:
    return not any(reduce_against(field, sub, vec))


def coords_in(field, sub: Subspace, vec: Sequence):
    """Coordinates of vec in the RREF basis of sub, or None."""
    coords = tuple(vec[pc] for pc in sub.pivots)
    if any(reduce_against(field, sub, vec)):
        return None
    return coords


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
