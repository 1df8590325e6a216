"""Modules over a presented algebra: Hom spaces, sub/quotient structure,
isomorphism testing and composition series.

A RepModule stores its dimension vector and arrow matrices in quiver order,
so equal modules have identical representations and can key caches.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import memo
from .algebra import AlgebraPresentation
from .fields import GF, QQ
from .linalg import (Mat, Subspace, coords_in, identity, kernel_basis,
                     mat_from_fractions, mat_mul, mat_vec, normalised,
                     quotient_projection, rank, span, transpose, zeros)


class ModuleError(ValueError):
    pass


class UndecidableError(RuntimeError):
    """Raised when the finite-field search grid cannot decide a question."""


class RepModule:
    __slots__ = ("algebra", "field", "dims", "matrices", "_key")

    def __init__(self, algebra: AlgebraPresentation, field,
                 dims: Tuple[int, ...], matrices: Tuple[Mat, ...]):
        self.algebra = algebra
        self.field = field
        self.dims = dims              # ordered as algebra.quiver.vertices
        self.matrices = matrices      # ordered as algebra.quiver.arrows
        self._key = None

    def __eq__(self, other):
        if other.__class__ is not RepModule:
            return NotImplemented
        return (self.algebra, self.field, self.dims, self.matrices) == \
            (other.algebra, other.field, other.dims, other.matrices)

    def __hash__(self):
        return hash((self.algebra, self.field, self.dims, self.matrices))

    def dim(self, v: str) -> int:
        return self.dims[self.algebra.quiver.vertex_index(v)]

    def mat(self, arrow_name: str) -> Mat:
        return self.matrices[self.algebra.quiver.arrow_index(arrow_name)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def dims_dict(self) -> Dict[str, int]:
        return dict(zip(self.algebra.quiver.vertices, self.dims))

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def key(self):
        """The identity of the module, computed once: (algebra key, field,
        dims, entries).  Entries are integers only: a GF(p) entry as it
        is, a rational one as its numerator and denominator, each matrix
        flattened row by row (the dims fix its shape)."""
        cached = self._key
        if cached is None:
            if isinstance(self.field, QQ):
                entries = tuple(
                    tuple(v for r in m.rows for x in r
                          for v in (x.numerator, x.denominator))
                    for m in self.matrices)
            else:
                entries = tuple(tuple(x for r in m.rows for x in r)
                                for m in self.matrices)
            cached = self._key = (self.algebra.key(), repr(self.field),
                                  self.dims, entries)
        return cached


def _path_matrix(field, m: RepModule, names, n: int) -> Mat:
    """m_{a1} ... m_{ak} for arrow names a1..ak; the n x n identity when
    there are none."""
    if not names:
        return identity(field, n)
    acc = m.mat(names[0])
    for nm in names[1:]:
        acc = mat_mul(field, acc, m.mat(nm))
    return acc


def check_module(algebra: AlgebraPresentation, field, dims: Dict[str, int],
                 matrices: Dict[str, Mat]) -> RepModule:
    """Validate shapes and all relation residues; return the module.  A
    residue is the sum of coeff * x_p over the relation's terms, each
    path product read by ``_path_matrix``."""
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
    mod = RepModule(algebra, field, tuple(dim_list), tuple(mat_list))
    for idx, rel in enumerate(algebra.relations):
        src, tgt = rel.endpoints(q)
        nr, nc = mod.dim(tgt), mod.dim(src)
        terms = [(field.from_fraction(coeff),
                  _path_matrix(field, mod, path.arrows, nr).rows)
                 for coeff, path in rel.terms]
        residue = [[sum(c * x[i][j] for c, x in terms) for j in range(nc)]
                   for i in range(nr)]
        for i, row in enumerate(normalised(field, residue, nc).rows):
            for j, x in enumerate(row):
                if x:
                    raise ModuleError(
                        f"relation {idx} violated: residue[{i}][{j}] = {x}")
    return mod


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
    """One-dimensional module supported at a single vertex; a vertex the
    quiver lacks is a ``ModuleError``."""
    if v not in algebra.quiver.vertices:
        raise ModuleError(
            f"no simple at vertex {v!r}: the quiver has vertices "
            + ", ".join(repr(u) for u in algebra.quiver.vertices))
    dims = {u: (1 if u == v else 0) for u in algebra.quiver.vertices}
    return check_module(algebra, field, dims, {})


def direct_sum(m: RepModule, n: RepModule) -> RepModule:
    _same_ring(m, n, "direct sum")
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


@memo.cached(lambda m: m.key())
def blocks(m: RepModule) -> Tuple[RepModule, ...]:
    """The blocks of a presentation: the modules on the connected
    components of its basis vectors, two vectors linked by each nonzero
    entry of an arrow matrix, in the order of their first vectors
    (vertices in quiver order, then coordinates).

    Ordering the basis at each vertex component by component makes every
    arrow matrix block diagonal, so M equals the direct sum of its blocks
    up to a permutation of its basis, and the blocks satisfy the
    relations.  A presentation with at most one block gives ``(m,)``.
    """
    q = m.algebra.quiver
    offsets = list(itertools.accumulate(m.dims, initial=0))
    parent = list(range(offsets[-1]))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for arr, x in zip(q.arrows, m.matrices):
        s = offsets[q.vertex_index(arr.source)]
        t = offsets[q.vertex_index(arr.target)]
        for i, row in enumerate(x.rows):
            for j, v in enumerate(row):
                if v:
                    a, b = root(t + i), root(s + j)
                    # the smaller index roots the union: a component's
                    # root is its first vector
                    parent[max(a, b)] = min(a, b)
    comps: Dict[int, list] = {}
    for i in range(offsets[-1]):
        comps.setdefault(root(i), []).append(i)
    if len(comps) < 2:
        return (m,)
    out = []
    for comp in comps.values():
        local = [[i - lo for i in comp if lo <= i < hi]
                 for lo, hi in zip(offsets, offsets[1:])]
        mats = []
        for arr, x in zip(q.arrows, m.matrices):
            rows = local[q.vertex_index(arr.target)]
            cols = local[q.vertex_index(arr.source)]
            mats.append(Mat(tuple(tuple(x.rows[i][j] for j in cols)
                                  for i in rows), len(rows), len(cols)))
        out.append(RepModule(m.algebra, m.field, tuple(map(len, local)),
                             tuple(mats)))
    return tuple(out)


class Catalog(dict):
    """Modules keyed by label, which may name their indecomposables.

    ``indecomposables`` holds the labels of entries that the catalog
    declares to be every indecomposable module, one per isomorphism class,
    up to the largest total dimension among its entries.  Empty, it
    declares nothing, and the catalog acts as a plain dict.
    """

    def __init__(self, entries=(), indecomposables: Sequence[str] = ()):
        super().__init__(entries)
        names = tuple(indecomposables)
        unknown = [lab for lab in names if lab not in self]
        if unknown:
            raise ModuleError("named indecomposables are not catalog "
                              f"entries: {', '.join(map(str, unknown))}")
        repeated = sorted({lab for lab in names if names.count(lab) > 1})
        if repeated:
            raise ModuleError("named indecomposables are repeated: "
                              + ", ".join(repeated))
        zero = [lab for lab in names if self[lab].is_zero()]
        if zero:
            raise ModuleError("named indecomposables are zero modules: "
                              + ", ".join(zero))
        self.indecomposables = names


def named_indecomposables(catalog: Dict[str, RepModule]) -> Tuple[str, ...]:
    """The labels a catalog names as its indecomposables; () for a plain
    dict."""
    return catalog.indecomposables if isinstance(catalog, Catalog) else ()


@memo.cached(lambda m, p: (m.key(), p))
def reduce_module(m: RepModule, p: int) -> RepModule:
    """Reduction mod p of a rational module, validating the relations on
    the first call for each (module, p)."""
    if not isinstance(m.field, QQ):
        raise ModuleError("can only reduce a rational module")
    gf = GF(p)
    mats = {}
    q = m.algebra.quiver
    for a, mat in zip(q.arrows, m.matrices):
        mats[a.name] = mat_from_fractions(gf, mat.rows, ncols=mat.ncols)
    return check_module(m.algebra, gf, m.dims_dict(), mats)


def reduce_catalog(catalog: Dict[str, RepModule], p: int) -> Catalog:
    """Every entry reduced mod p, keeping the named indecomposables."""
    return Catalog({lab: reduce_module(c, p) for lab, c in catalog.items()},
                   named_indecomposables(catalog))


# ---------------------------------------------------------------------------
# Hom spaces


class HomBasis:
    __slots__ = ("source", "target", "basis")

    def __init__(self, source: RepModule, target: RepModule,
                 basis: Tuple[Tuple[Mat, ...], ...]):
        self.source = source
        self.target = target
        self.basis = basis            # each element: per-vertex matrices

    @property
    def dim(self) -> int:
        return len(self.basis)


def _hom_system(m: RepModule, n: RepModule) -> Tuple[Mat, List[Tuple[int, int, int]]]:
    """Coefficient matrix of the intertwiner equations.

    Unknowns: entries of phi_v (n_v x m_v), row-major, vertices in order.
    Returns the system and the unknown layout [(vertex, rows, cols)].
    """
    q = m.algebra.quiver
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
                row = [0] * total
                # phi_t[i,k] * xm[k,j]
                for k in range(m.dims[t]):
                    row[offsets[t] + i * m.dims[t] + k] += xm.rows[k][j]
                # - xn[i,k] * phi_s[k,j]
                for k in range(n.dims[s]):
                    row[offsets[s] + k * m.dims[s] + j] -= xn.rows[i][k]
                rows.append(row)
    return normalised(m.field, rows, total), layout


def _unpack_hom(field, vec: Sequence, layout) -> Tuple[Mat, ...]:
    mats = []
    pos = 0
    for _, r, c in layout:
        rows = tuple(tuple(vec[pos + i * c + j] for j in range(c)) for i in range(r))
        mats.append(Mat(rows, r, c))
        pos += r * c
    return tuple(mats)


def _same_ring(m: RepModule, n: RepModule, what: str) -> None:
    """Refuse two modules over different fields or algebras (by key)."""
    if m.field != n.field:
        raise ModuleError(f"{what} between modules over different fields "
                          f"{m.field!r} and {n.field!r}")
    if m.algebra is not n.algebra and m.algebra.key() != n.algebra.key():
        raise ModuleError(f"{what} between modules over different algebras")


@memo.cached(lambda m, n: (m.key(), n.key()))
def hom_basis(m: RepModule, n: RepModule) -> HomBasis:
    _same_ring(m, n, "Hom")
    sys_mat, layout = _hom_system(m, n)
    kern = kernel_basis(m.field, sys_mat)
    basis = tuple(_unpack_hom(m.field, row, layout) for row in kern.rows)
    return HomBasis(m, n, basis)


@memo.cached(lambda m, n: (m.key(), n.key()))
def hom_dim(m: RepModule, n: RepModule) -> int:
    """dim Hom(M, N); when M or N has several ``blocks``, the sum over
    the pairs of blocks, since Hom is additive in both arguments."""
    _same_ring(m, n, "Hom")
    bm, bn = blocks(m), blocks(n)
    if len(bm) == len(bn) == 1:
        return hom_basis(m, n).dim
    return sum(hom_dim(x, y) for x in bm for y in bn)


def hom_combination(field, basis: Sequence[Tuple[Mat, ...]], coeffs: Sequence):
    """Per-vertex matrices of sum_k coeffs[k] * basis[k]."""
    out = []
    for v, proto in enumerate(basis[0]):
        rows = [[0] * proto.ncols for _ in range(proto.nrows)]
        for c, phis in zip(coeffs, basis):
            if c:
                for row, mr in zip(rows, phis[v].rows):
                    for j, y in enumerate(mr):
                        row[j] += c * y
        out.append(normalised(field, rows, proto.ncols))
    return tuple(out)


# ---------------------------------------------------------------------------
# Deterministic search over a Hom space


def _grid_values(field, side: int):
    if isinstance(field, GF):
        return list(range(min(side, field.p)))
    return [Fraction(x) for x in range(side)]


def _lcg_tuples(nvals: int, h: int, count: int):
    # deterministic scrambled sweep; fixed start, multiplier and increment
    state = 0x2545F4914F6CDD1D
    for _ in range(count):
        out = []
        for _ in range(h):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            out.append((state >> 33) % nvals)
        yield tuple(out)


def _basis_probes(field, h: int):
    """Each basis element, then the sum of all of them."""
    one, zero = field.one, field.zero
    yield from (tuple(one if i == k else zero for i in range(h))
                for k in range(h))
    yield tuple(one for _ in range(h))


# the scrambled tuples tried before the basis probes
FIRST_SCRAMBLED = 3


def _probes(field, h: int, values):
    """The fast probes of ``search_hom_space``, in order: the first
    ``FIRST_SCRAMBLED`` scrambled tuples over ``values``, the basis
    probes, then the other scrambled tuples.  A combination with
    multiplicities is rarely a basis element, so the scrambled ones come
    first.  Lazy, so an early hit never pays for the later probes."""
    scrambled = (tuple(values[i] for i in tup)
                 for tup in _lcg_tuples(len(values), h, 400))
    return itertools.chain(itertools.islice(scrambled, FIRST_SCRAMBLED),
                           _basis_probes(field, h), scrambled)


def search_hom_space(hb: HomBasis, predicate, degree: int):
    """Deterministic search for a basis combination satisfying ``predicate``.

    ``predicate`` must be the non-vanishing locus of some polynomial of
    degree <= ``degree`` in each coefficient (e.g. "all vertex blocks
    invertible", "full column rank"), so a full sweep of a grid with
    degree+1 values per coordinate is a sound decision procedure.  Fast
    deterministic probes (``_probes``) run first.  Over GF(p) with
    p <= degree the grid is all of GF(p), which decides only when it can
    be swept whole.

    Returns the per-vertex matrices of a hit, or None.
    """
    field = hb.source.field
    h = hb.dim
    if h == 0:
        return None
    values = _grid_values(field, degree + 1)
    nv = len(values)
    exhaustive_ok = not (isinstance(field, GF) and field.p < degree + 1
                         and field.p ** h > 400000)
    seen = set()
    for coeffs in _probes(field, h, values):
        if coeffs in seen or not any(coeffs):
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
        if not any(coeffs) or coeffs in seen:
            continue
        phis = hom_combination(field, hb.basis, coeffs)
        if predicate(phis):
            return phis
    return None


def is_isomorphic(m: RepModule, n: RepModule):
    """(True, per-vertex witness) or (False, None).

    Isomorphic modules have hom(M, N) = hom(N, M) = hom(M, M) = hom(N, N).
    Hom(M, N) is first compared with End(N), which is already known when
    N is a class representative; then the first probes of the search are
    tried, since a hit proves isomorphism, and only then are Hom(N, M) and
    End(M) built and compared before the full search.  A probe is one
    vector of the kernel of the Hom system, the combination of its
    reduced echelon basis (that of ``hom_basis``), and only that vector
    is unpacked into per-vertex matrices; the unpacked basis is built
    when the full search runs.  A hit is the witness the full search
    would return first; a pair whose Hom dimensions differ is refused
    without any search.  Modules over different algebras or fields are a
    ``ModuleError``.
    """
    _same_ring(m, n, "isomorphism test")
    if m.dims != n.dims:
        return False, None
    if m.is_zero():
        return True, tuple(zeros(m.field, 0, 0) for _ in m.dims)
    field = m.field
    sys_mat, layout = _hom_system(m, n)
    kern = kernel_basis(field, sys_mat)
    h = kern.nrows
    if h != hom_dim(n, n):
        return False, None

    def invertible(phis):
        return all(phi.nrows == phi.ncols and rank(field, phi) == phi.nrows
                   for phi in phis)

    first = itertools.islice(
        _probes(field, h, _grid_values(field, sum(m.dims) + 1)),
        FIRST_SCRAMBLED + h + 1)
    cols = transpose(kern)
    for coeffs in dict.fromkeys(first):
        phis = _unpack_hom(field, mat_vec(field, cols, coeffs), layout)
        if invertible(phis):
            return True, phis
    if h != hom_dim(n, m) or hom_dim(m, m) != hom_dim(n, n):
        return False, None
    hit = search_hom_space(hom_basis(m, n), invertible, sum(m.dims))
    if hit is None:
        return False, None
    return True, hit


# ---------------------------------------------------------------------------
# Submodules and quotients


def submodule(m: RepModule, witness: Sequence[Subspace]) -> RepModule:
    """The submodule spanned by an arrow-stable witness, one subspace per
    vertex, in the basis of the RREF rows of each subspace."""
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
    return RepModule(m.algebra, field, sub_dims, tuple(sub_mats))


def sub_quotient(m: RepModule, witness: Sequence[Subspace]):
    """Submodule, quotient and the inclusion/projection module maps.

    Bases: the RREF rows of each witness subspace for the submodule, the
    standard vectors at non-pivot coordinates for the quotient.
    Returns (sub, quot, incl per-vertex, proj per-vertex).
    """
    q = m.algebra.quiver
    field = m.field
    sub = submodule(m, witness)
    incl = []
    proj = []
    nonpivots = []
    for i, w in enumerate(witness):
        d = m.dims[i]
        incl_rows = tuple(tuple(w.mat.rows[k][r] for k in range(w.dim))
                          for r in range(d))
        incl.append(Mat(incl_rows, d, w.dim))
        nonpivots.append([c for c in range(d) if c not in w.pivots])
        proj.append(quotient_projection(field, w))

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
