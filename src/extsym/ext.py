"""First extension groups via arrow-tuple spaces.

For modules X, Y the space of tuples d = (d(a))_a with d(a):
X_{s(a)} -> Y_{t(a)} whose block-triangular matrices

    [[Y_a, d(a)], [0, X_a]]

satisfy all relations is computed as the kernel of an explicit linear map;
the trivial tuples (those of the form phi_t X_a - Y_a phi_s) form the image
of the corresponding Hom-tuple map.  A deterministic complement of the
trivial part identifies Ext^1(X, Y).

Coordinates of a tuple: the entries of each d(a), row-major, arrows in
quiver order.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from . import memo
from .linalg import (Mat, Subspace, coords_in, kernel_basis, mat_mul,
                     mat_vec, normalised, quotient_projection, span,
                     transpose)
from .modules import (RepModule, _hom_system, _path_matrix, blocks,
                      check_module)


class ExtError(ValueError):
    pass


def _tuple_layout(x: RepModule, y: RepModule):
    """Block layout of arrow tuples: [(arrow idx, rows, cols, offset)]."""
    q = x.algebra.quiver
    layout = []
    off = 0
    for ai, arr in enumerate(q.arrows):
        r = y.dims[q.vertex_index(arr.target)]
        c = x.dims[q.vertex_index(arr.source)]
        layout.append((ai, r, c, off))
        off += r * c
    return layout, off


def _unpack_tuple(vec, layout):
    mats = []
    for _, r, c, off in layout:
        rows = tuple(tuple(vec[off + i * c + j] for j in range(c)) for i in range(r))
        mats.append(Mat(rows, r, c))
    return tuple(mats)


def _pack_tuple(mats):
    """Tuple coordinates of arrow matrices: the layout's blocks follow
    each other in arrow order, so the entries concatenate row by row."""
    return tuple(x for m in mats for row in m.rows for x in row)


def ext1_equations(x: RepModule, y: RepModule) -> Mat:
    """The linear equations cutting D(X, Y) out of the arrow tuples.

    One row per entry of each relation's off-diagonal residue (relations in
    order, entries row-major), one column per tuple coordinate.  A path
    a1...am contributes sum_k Y_{a1..a(k-1)} d(a_k) X_{a(k+1)..am}, so its
    term k adds coeff * (P kron S^T) to the columns of d(a_k), with
    P = Y_{a1..a(k-1)} and S = X_{a(k+1)..am}; a vertex path adds nothing.
    """
    field = x.field
    q = x.algebra.quiver
    layout, total = _tuple_layout(x, y)
    rows = []
    for rel in x.algebra.relations:
        src, tgt = rel.endpoints(q)
        nr, nc = y.dim(tgt), x.dim(src)
        block = [[0] * total for _ in range(nr * nc)]
        for coeff, path in rel.terms:
            if path.is_vertex:
                continue
            c = field.from_fraction(coeff)
            names = path.arrows
            for k, name in enumerate(names):
                _, r, cc, off = layout[q.arrow_index(name)]
                pre = _path_matrix(field, y, names[:k], nr).rows
                suf = _path_matrix(field, x, names[k + 1:], nc).rows
                for i in range(nr):
                    for u in range(r):
                        cp = c * pre[i][u]
                        if not cp:
                            continue
                        base = off + u * cc
                        for j in range(nc):
                            row = block[i * nc + j]
                            for v in range(cc):
                                row[base + v] += cp * suf[v][j]
        rows.extend(block)
    return normalised(field, rows, total)


class ExtSpace:
    """D(X, Y) with a deterministic complement of its trivial part.

    All bases are rows in tuple coordinates; ``compl`` identifies
    Ext^1(X, Y).  The D-coordinates of a tuple in D(X, Y) are its entries
    at ``d_pivots``, the pivots of ``d_basis``; ``readout`` maps them to
    class coordinates.
    """

    __slots__ = ("x", "y", "d_basis", "d_pivots", "compl", "readout",
                 "layout", "total")

    def __init__(self, x: RepModule, y: RepModule, d_basis: Mat,
                 d_pivots: tuple, compl: Mat, readout: Mat, layout: tuple,
                 total: int):
        self.x = x
        self.y = y
        self.d_basis = d_basis    # RREF basis of D(X, Y)
        self.d_pivots = d_pivots  # pivots of d_basis
        self.compl = compl        # complement: rows of d_basis not absorbed
        self.readout = readout    # D-coordinates -> class coordinates
        self.layout = layout
        self.total = total

    @property
    def dim(self) -> int:
        return self.compl.nrows

    @property
    def field(self):
        return self.x.field

    def class_tuple(self, coords: Sequence) -> Tuple[Mat, ...]:
        """Representative arrow tuple of the class with given coordinates."""
        vec = mat_vec(self.field, transpose(self.compl), coords)
        return _unpack_tuple(vec, self.layout)

    def reduce(self, d_mats: Sequence[Mat]) -> Tuple:
        """Complement coordinates of a tuple in D(X, Y)."""
        field = self.field
        d = Subspace(field, self.total, self.d_basis, self.d_pivots)
        coords = coords_in(field, d, _pack_tuple(d_mats))
        if coords is None:
            raise ExtError("tuple not in D(X, Y)")
        return mat_vec(field, self.readout, coords)


def _same_ring(x: RepModule, y: RepModule) -> None:
    if x.field != y.field or x.algebra.key() != y.algebra.key():
        raise ExtError("modules over different algebras or fields")


@memo.cached(lambda x, y: (x.key(), y.key()))
def ext1_space(x: RepModule, y: RepModule) -> ExtSpace:
    """Ext^1(X, Y): classes of extensions 0 -> Y -> L -> X -> 0."""
    field = x.field
    _same_ring(x, y)
    layout, total = _tuple_layout(x, y)
    d_basis = kernel_basis(field, ext1_equations(x, y))

    # trivial part: image of phi |-> (phi_t X_a - Y_a phi_s), whose matrix
    # is the transpose of the Hom system's (equation rows, Hom unknowns)
    trivial = transpose(_hom_system(x, y)[0])

    # complement: the rows of d_basis off the pivots of the trivial part in
    # D-coordinates; the class coordinates of a tuple are its D-coordinates
    # modulo the trivial part, read at those rows.  The trivial tuples lie
    # in D(X, Y), so their D-coordinates are their entries at d_pivots,
    # and ``span`` reduces the rows as they come.
    d_pivots = tuple(row.index(1) for row in d_basis.rows)
    triv = span(field, [[row[pc] for pc in d_pivots] for row in trivial.rows],
                d_basis.nrows)
    compl = Mat(tuple(r for j, r in enumerate(d_basis.rows)
                      if j not in triv.pivots),
                d_basis.nrows - triv.dim, total)
    return ExtSpace(x, y, d_basis, d_pivots, compl,
                    quotient_projection(field, triv), tuple(layout), total)


@memo.cached(lambda x, y: (x.key(), y.key()))
def ext_dim(x: RepModule, y: RepModule) -> int:
    """dim Ext^1(X, Y); when X or Y has several ``blocks``, the sum over
    the pairs of blocks, since Ext^1 is additive in both arguments."""
    _same_ring(x, y)
    bx, by = blocks(x), blocks(y)
    if len(bx) == len(by) == 1:
        return ext1_space(x, y).dim
    return sum(ext_dim(a, b) for a in bx for b in by)


# ---------------------------------------------------------------------------
# Middle terms


def middle_term(space: ExtSpace, coords: Sequence) -> RepModule:
    """Module L of the class 0 -> Y -> L -> X -> 0.

    Per-vertex basis order: Y coordinates first, then X.
    """
    field = space.field
    x, y = space.x, space.y
    q = x.algebra.quiver
    d_mats = space.class_tuple(coords)
    dims = {}
    mats = {}
    for i, v in enumerate(q.vertices):
        dims[v] = y.dims[i] + x.dims[i]
    for ai, arr in enumerate(q.arrows):
        s = q.vertex_index(arr.source)
        t = q.vertex_index(arr.target)
        ya, xa, da = y.matrices[ai], x.matrices[ai], d_mats[ai]
        rows = []
        for i in range(y.dims[t]):
            rows.append(tuple(ya.rows[i]) + tuple(da.rows[i]))
        for i in range(x.dims[t]):
            rows.append(tuple(field.zero for _ in range(y.dims[s]))
                        + tuple(xa.rows[i]))
        mats[arr.name] = Mat(tuple(rows), dims[arr.target], dims[arr.source])
    return check_module(x.algebra, field, dims, mats)


# ---------------------------------------------------------------------------
# Class transport (pushout / pullback)


def transport_matrix(src: ExtSpace, dst: ExtSpace, maps: Sequence[Mat],
                     side: str) -> Mat:
    """The matrix of transport along a module map: column k holds the dst
    coordinates of the transported basis class k of src.

    side="pushout": maps f: Y -> Y' act by d(a) -> f_{t(a)} d(a);
    src = Ext(X, Y), dst = Ext(X, Y').
    side="pullback": maps g: X' -> X act by d(a) -> d(a) g_{s(a)};
    src = Ext(X, Y), dst = Ext(X', Y).
    """
    field = src.field
    q = src.x.algebra.quiver
    push = side == "pushout"
    if push:
        if dst.x.key() != src.x.key():
            raise ExtError("pushout must preserve the X side")
    elif side == "pullback":
        if dst.y.key() != src.y.key():
            raise ExtError("pullback must preserve the Y side")
    else:
        raise ExtError(f"unknown transport side {side!r}")
    # the map at the end of each arrow that the tuple entry d(a) meets
    ends = [maps[q.vertex_index(arr.target if push else arr.source)]
            for arr in q.arrows]
    cols = []
    for row in src.compl.rows:
        d_mats = _unpack_tuple(row, src.layout)
        cols.append(dst.reduce([mat_mul(field, f, d) if push
                                else mat_mul(field, d, f)
                                for f, d in zip(ends, d_mats)]))
    return transpose(Mat(tuple(cols), len(cols), dst.dim))


# ---------------------------------------------------------------------------
# The paired transport beta of the correction term


def beta_map(n: RepModule, m: RepModule,
             n1: RepModule, n1_incl: Sequence[Mat],
             m1: RepModule, m1_incl: Sequence[Mat]) -> Tuple[Mat, Mat]:
    """The two transports of Ext^1(N, M1), as (push, pull): the pushout
    along M1 -> M into Ext^1(N, M) and the pullback along N1 -> N into
    Ext^1(N1, M1).  The columns of both are indexed by the complement
    basis of Ext^1(N, M1)."""
    e_nm1 = ext1_space(n, m1)
    return (transport_matrix(e_nm1, ext1_space(n, m), m1_incl, "pushout"),
            transport_matrix(e_nm1, ext1_space(n1, m1), n1_incl, "pullback"))


def pushed_kernel_dim(field, push: Mat, pull: Mat) -> int:
    """w = dim push(ker pull), the dimension of the classes of Ext^1(N, M)
    that beta reaches from a class with zero pullback."""
    return span(field, [mat_vec(field, push, k)
                        for k in kernel_basis(field, pull).rows],
                push.nrows).dim


# ---------------------------------------------------------------------------
# Ext-symmetry audit


class SymmetryRow:
    __slots__ = ("dim_mn", "dim_nm")

    def __init__(self, dim_mn: int, dim_nm: int):
        self.dim_mn = dim_mn
        self.dim_nm = dim_nm

    @property
    def symmetric(self) -> bool:
        return self.dim_mn == self.dim_nm


class SymmetryReport:
    __slots__ = ("rows",)

    def __init__(self, rows: Tuple[SymmetryRow, ...]):
        self.rows = rows

    @property
    def passed(self) -> bool:
        return all(r.symmetric for r in self.rows)

    def failures(self):
        return [r for r in self.rows if not r.symmetric]


def ext_symmetry_audit(pairs) -> SymmetryReport:
    """Dimension-level Ext-symmetry audit over (M, N) module pairs."""
    return SymmetryReport(tuple(SymmetryRow(ext_dim(m, n), ext_dim(n, m))
                                for m, n in pairs))
