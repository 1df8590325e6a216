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

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .linalg import (Mat, Subspace, identity, kernel_basis, mat_add, mat_mul,
                     mat_scale, mat_vec, rref, span, vstack, zeros)
from .modules import RepModule, check_module


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


def _unpack_tuple(field, vec, layout):
    mats = []
    for _, r, c, off in layout:
        rows = tuple(tuple(vec[off + i * c + j] for j in range(c)) for i in range(r))
        mats.append(Mat(rows, r, c))
    return tuple(mats)


def _pack_tuple(mats, layout, total, zero):
    vec = [zero] * total
    for (_, r, c, off), m in zip(layout, mats):
        for i in range(r):
            for j in range(c):
                vec[off + i * c + j] = m.rows[i][j]
    return tuple(vec)


def _offdiag_path_block(field, x: RepModule, y: RepModule, d_mats, path):
    """Off-diagonal block of L(d)_p for a path p.

    D_p = sum_k Y_{a1..a_{k-1}} d(a_k) X_{a_{k+1}..a_m}; zero for a vertex
    path.
    """
    q = x.algebra.quiver
    src, tgt = path.endpoints(q)
    if path.is_vertex:
        return zeros(field, y.dim(path.vertex), x.dim(path.vertex))
    names = path.arrows
    acc = None
    for k in range(len(names)):
        term = d_mats[q.arrow_index(names[k])]
        # prefix over Y (applied last), suffix over X (applied first)
        for nm in reversed(names[:k]):
            term = mat_mul(field, y.mat(nm), term)
        for nm in names[k + 1:]:
            term = mat_mul(field, term, x.mat(nm))
        acc = term if acc is None else mat_add(field, acc, term)
    return acc


def _relation_blocks(field, x: RepModule, y: RepModule, d_mats):
    """Per-relation off-diagonal residues of L(d)."""
    out = []
    q = x.algebra.quiver
    for rel in x.algebra.relations:
        src, tgt = rel.endpoints(q)
        acc = zeros(field, y.dim(tgt), x.dim(src))
        for coeff, path in rel.terms:
            blk = _offdiag_path_block(field, x, y, d_mats, path)
            acc = mat_add(field, acc,
                          mat_scale(field, field.from_fraction(coeff), blk))
        out.append(acc)
    return out


@dataclass(frozen=True)
class ExtSpace:
    """D(X, Y) with its trivial part and a deterministic complement.

    All bases are rows in tuple coordinates; ``compl`` identifies
    Ext^1(X, Y).
    """

    x: RepModule
    y: RepModule
    d_basis: Mat          # RREF basis of D(X, Y)
    trivial: Mat          # RREF basis of Ker pi (= image of the Hom map)
    compl: Mat            # complement basis, rows of d_basis not absorbed
    layout: tuple
    total: int

    @property
    def dim(self) -> int:
        return self.compl.nrows

    @property
    def field(self):
        return self.x.field

    def class_tuple(self, coords: Sequence) -> Tuple[Mat, ...]:
        """Representative arrow tuple of the class with given coordinates."""
        field = self.field
        vec = [field.zero] * self.total
        for c, row in zip(coords, self.compl.rows):
            if not field.is_zero(c):
                vec = [field.add(v, field.mul(c, r)) for v, r in zip(vec, row)]
        return _unpack_tuple(field, vec, self.layout)

    def reduce(self, d_mats: Sequence[Mat]) -> Tuple:
        """Complement coordinates of a tuple in D(X, Y)."""
        field = self.field
        vec = _pack_tuple(d_mats, self.layout, self.total, field.zero)
        if self.trivial.nrows + self.compl.nrows == 0:
            if any(not field.is_zero(v) for v in vec):
                raise ExtError("tuple not in D(X, Y)")
            return ()
        stacked = vstack(field, [self.trivial, self.compl]) \
            if self.trivial.nrows else self.compl
        from .linalg import solve, transpose
        sol = solve(field, transpose(stacked), vec)
        if sol is None:
            raise ExtError("tuple not in D(X, Y)")
        return tuple(sol[self.trivial.nrows:])

    def zero_class(self) -> Tuple:
        return tuple(self.field.zero for _ in range(self.dim))


_ext_cache: dict = {}


def ext1_space(x: RepModule, y: RepModule) -> ExtSpace:
    """Ext^1(X, Y): classes of extensions 0 -> Y -> L -> X -> 0."""
    ck = (x.algebra.key(), x.key(), y.key())
    cached = _ext_cache.get(ck)
    if cached is not None:
        return cached
    field = x.field
    if x.field != y.field or x.algebra.key() != y.algebra.key():
        raise ExtError("modules over different algebras or fields")
    layout, total = _tuple_layout(x, y)
    # D(X, Y) = kernel of d |-> per-relation off-diagonal residues
    eq_rows = []
    basis_vec = [field.zero] * total
    for pos in range(total):
        basis_vec[pos] = field.one
        d_mats = _unpack_tuple(field, basis_vec, layout)
        blocks = _relation_blocks(field, x, y, d_mats)
        col = []
        for blk in blocks:
            for rrow in blk.rows:
                col.extend(rrow)
        eq_rows.append(tuple(col))
        basis_vec[pos] = field.zero
    neqs = len(eq_rows[0]) if eq_rows else 0
    # eq_rows are columns of the equation matrix
    if total == 0:
        d_basis = Mat((), 0, 0)
    else:
        eq_mat = Mat(tuple(tuple(eq_rows[c][r] for c in range(total))
                           for r in range(neqs)), neqs, total)
        d_basis = kernel_basis(field, eq_mat)

    # trivial part: image of phi |-> (phi_t X_a - Y_a phi_s)
    q = x.algebra.quiver
    triv_vecs = []
    for i, v in enumerate(q.vertices):
        for ii in range(y.dims[i]):
            for jj in range(x.dims[i]):
                d_mats = []
                for ai, arr in enumerate(q.arrows):
                    s = q.vertex_index(arr.source)
                    t = q.vertex_index(arr.target)
                    blk = [[field.zero] * x.dims[s] for _ in range(y.dims[t])]
                    if t == i:
                        # phi_t X_a contribution: phi = E_{ii,jj} at vertex i
                        xa = x.matrices[ai]
                        for col in range(x.dims[s]):
                            blk[ii][col] = field.add(blk[ii][col], xa.rows[jj][col])
                    if s == i:
                        ya = y.matrices[ai]
                        for row in range(y.dims[t]):
                            blk[row][jj] = field.sub(blk[row][jj], ya.rows[row][ii])
                    d_mats.append(Mat(tuple(tuple(r) for r in blk),
                                      y.dims[t], x.dims[s]))
                triv_vecs.append(_pack_tuple(d_mats, layout, total, field.zero))
    triv_mat = Mat(tuple(triv_vecs), len(triv_vecs), total) if triv_vecs \
        else Mat((), 0, total)
    trivial = rref(field, triv_mat)[0]

    # complement: rows of d_basis whose D-coordinates extend the trivial RREF
    if d_basis.nrows:
        triv_coords = []
        dsub = Subspace(field, total, d_basis,
                        tuple(_pivots_of_rref(field, d_basis)))
        for row in trivial.rows:
            coords = tuple(row[pc] for pc in dsub.pivots)
            triv_coords.append(coords)
        tc_mat = Mat(tuple(triv_coords), len(triv_coords), d_basis.nrows) \
            if triv_coords else Mat((), 0, d_basis.nrows)
        tc_rref, tc_pivots = rref(field, tc_mat)
        free = [j for j in range(d_basis.nrows) if j not in set(tc_pivots)]
        compl = Mat(tuple(d_basis.rows[j] for j in free), len(free), total)
    else:
        compl = Mat((), 0, total)

    space = ExtSpace(x, y, d_basis, trivial, compl, tuple(layout), total)
    if len(_ext_cache) > 100000:
        _ext_cache.clear()
    _ext_cache[ck] = space
    return space


def _pivots_of_rref(field, m: Mat):
    pivots = []
    for row in m.rows:
        for j, v in enumerate(row):
            if not field.is_zero(v):
                pivots.append(j)
                break
    return pivots


def ext_dim(x: RepModule, y: RepModule) -> int:
    return ext1_space(x, y).dim


# ---------------------------------------------------------------------------
# Middle terms


def middle_term(space: ExtSpace, coords: Sequence):
    """Module L of the class, with inclusion Y -> L and projection L -> X.

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
    L = check_module(x.algebra, field, dims, mats)
    incl = []
    proj = []
    for i in range(len(q.vertices)):
        dy, dx = y.dims[i], x.dims[i]
        incl.append(Mat(tuple(tuple(field.one if r == c else field.zero
                                    for c in range(dy))
                              for r in range(dy + dx)), dy + dx, dy))
        proj.append(Mat(tuple(tuple(field.one if c == dy + r else field.zero
                                    for c in range(dy + dx))
                              for r in range(dx)), dx, dy + dx))
    return L, tuple(incl), tuple(proj)


# ---------------------------------------------------------------------------
# Class transport (pushout / pullback)


def transport_class(coords: Sequence, src: ExtSpace, dst: ExtSpace,
                    maps: Sequence[Mat], side: str) -> Tuple:
    """Transport a class along a module map.

    side="pushout": maps f: Y -> Y' act by d(a) -> f_{t(a)} d(a);
    src = Ext(X, Y), dst = Ext(X, Y').
    side="pullback": maps g: X' -> X act by d(a) -> d(a) g_{s(a)};
    src = Ext(X, Y), dst = Ext(X', Y).
    """
    field = src.field
    q = src.x.algebra.quiver
    d_mats = src.class_tuple(coords)
    out = []
    for ai, arr in enumerate(q.arrows):
        s = q.vertex_index(arr.source)
        t = q.vertex_index(arr.target)
        if side == "pushout":
            if dst.x.key() != src.x.key():
                raise ExtError("pushout must preserve the X side")
            out.append(mat_mul(field, maps[t], d_mats[ai]))
        elif side == "pullback":
            if dst.y.key() != src.y.key():
                raise ExtError("pullback must preserve the Y side")
            out.append(mat_mul(field, d_mats[ai], maps[s]))
        else:
            raise ExtError(f"unknown transport side {side!r}")
    return dst.reduce(out)


# ---------------------------------------------------------------------------
# beta maps (Grassmannian form)


@dataclass(frozen=True)
class BetaPair:
    """beta: Ext(N, M1) -> Ext(N, M) + Ext(N1, M1) as a column matrix,
    together with the three Ext spaces involved."""

    matrix: Mat
    src: ExtSpace       # Ext(N, M1)
    dst_nm: ExtSpace    # Ext(N, M)
    dst_n1m1: ExtSpace  # Ext(N1, M1)


def beta_map(n: RepModule, m: RepModule,
             n1: RepModule, n1_incl: Sequence[Mat],
             m1: RepModule, m1_incl: Sequence[Mat]) -> BetaPair:
    """The map sending a class of Ext^1(N, M1) to (pushout to M, pullback
    to N1).  Columns are indexed by the complement basis of Ext^1(N, M1)."""
    field = n.field
    e_nm1 = ext1_space(n, m1)
    e_nm = ext1_space(n, m)
    e_n1m1 = ext1_space(n1, m1)
    cols = []
    for k in range(e_nm1.dim):
        coords = tuple(field.one if i == k else field.zero
                       for i in range(e_nm1.dim))
        push = transport_class(coords, e_nm1, e_nm, m1_incl, "pushout")
        pull = transport_class(coords, e_nm1, e_n1m1, n1_incl, "pullback")
        cols.append(tuple(push) + tuple(pull))
    nrows = e_nm.dim + e_n1m1.dim
    mat = Mat(tuple(tuple(col[i] for col in cols) for i in range(nrows)),
              nrows, e_nm1.dim)
    return BetaPair(mat, e_nm1, e_nm, e_n1m1)


@dataclass(frozen=True)
class BetaPrimePair:
    """beta': Ext(M, N) + Ext(M1, N1) -> Ext(M1, N)."""

    matrix: Mat
    src_mn: ExtSpace
    src_m1n1: ExtSpace
    dst: ExtSpace


def beta_prime_map(m: RepModule, n: RepModule,
                   m1: RepModule, m1_incl: Sequence[Mat],
                   n1: RepModule, n1_incl: Sequence[Mat]) -> BetaPrimePair:
    """(eps, eps') -> pullback of eps along M1 -> M minus pushout of eps'
    along N1 -> N, both landing in Ext^1(M1, N)."""
    field = m.field
    e_mn = ext1_space(m, n)
    e_m1n1 = ext1_space(m1, n1)
    e_m1n = ext1_space(m1, n)
    cols = []
    for k in range(e_mn.dim):
        coords = tuple(field.one if i == k else field.zero
                       for i in range(e_mn.dim))
        cols.append(transport_class(coords, e_mn, e_m1n, m1_incl, "pullback"))
    for k in range(e_m1n1.dim):
        coords = tuple(field.one if i == k else field.zero
                       for i in range(e_m1n1.dim))
        push = transport_class(coords, e_m1n1, e_m1n, n1_incl, "pushout")
        cols.append(tuple(field.neg(v) for v in push))
    mat = Mat(tuple(tuple(col[i] for col in cols) for i in range(e_m1n.dim)),
              e_m1n.dim, e_mn.dim + e_m1n1.dim)
    return BetaPrimePair(mat, e_mn, e_m1n1, e_m1n)


# ---------------------------------------------------------------------------
# Subspace bookkeeping used by both theorem pipelines


def image_first_block_dim(field, matrix: Mat, first_block: int) -> int:
    """dim { v in first block : (v, 0) lies in the column span of matrix }."""
    if matrix.ncols == 0 or first_block == 0:
        return 0
    # combos c with (matrix c) vanishing outside the first block
    tail = Mat(matrix.rows[first_block:], matrix.nrows - first_block,
               matrix.ncols)
    combos = kernel_basis(field, tail)
    if combos.nrows == 0:
        return 0
    head = Mat(matrix.rows[:first_block], first_block, matrix.ncols)
    vecs = [mat_vec(field, head, c) for c in combos.rows]
    return span(field, vecs, first_block).dim


def kernel_projection_dim(field, matrix: Mat, first_block: int) -> int:
    """dim of the projection of ker(matrix) onto its first block of
    coordinates."""
    if matrix.ncols == 0:
        return 0
    kern = kernel_basis(field, matrix)
    if kern.nrows == 0 or first_block == 0:
        return 0
    proj = [row[:first_block] for row in kern.rows]
    return span(field, proj, first_block).dim


# ---------------------------------------------------------------------------
# Flag beta maps


@dataclass(frozen=True)
class Flag:
    """A chain M = M_0 >= M_1 >= ... >= M_m = 0 with inclusion maps.

    steps[k] = (module M_{k+1}, per-vertex inclusion M_{k+1} -> M_k).
    factor_ids[k] is the index of the simple at step k+1 (or None when the
    step repeats the previous module).
    """

    top: RepModule
    steps: Tuple[Tuple[RepModule, Tuple[Mat, ...]], ...]
    factor_ids: Tuple[Optional[int], ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    def module(self, k: int) -> RepModule:
        return self.top if k == 0 else self.steps[k - 1][0]

    def incl(self, k: int) -> Tuple[Mat, ...]:
        """Inclusion M_k -> M_{k-1}, for 1 <= k <= length."""
        return self.steps[k - 1][1]


def trivial_flag_step(m: RepModule) -> Tuple[RepModule, Tuple[Mat, ...]]:
    field = m.field
    return m, tuple(identity(field, d) for d in m.dims)


@dataclass(frozen=True)
class FlagBetaPair:
    beta: Mat
    beta_blocks_dst: tuple      # Ext(N_k, M_k) dims, k = 0..m-2
    beta_prime: Mat
    beta_prime_blocks_src: tuple  # Ext(M_k, N_k) dims
    ext_mn_dim: int


def beta_flag_maps(flag_m: Flag, flag_n: Flag) -> FlagBetaPair:
    """The two block maps attached to a pair of flags of equal length.

    beta : sum_k Ext(N_k, M_{k+1}) -> sum_k Ext(N_k, M_k),   k = 0..m-2,
        block k of the image = push_{M_{k+1}->M_k}(eps_k)
                              - pull_{N_k->N_{k-1}}(eps_{k-1}).
    beta': sum_k Ext(M_k, N_k) -> sum_k Ext(M_{k+1}, N_k),
        block k = pull_{M_{k+1}->M_k}(eta_k) - push_{N_{k+1}->N_k}(eta_{k+1})
        for k <= m-3, block m-2 = pull(eta_{m-2}).
    """
    if flag_m.length != flag_n.length:
        raise ExtError("flag length mismatch")
    mlen = flag_m.length
    field = flag_m.top.field
    if mlen < 2:
        empty = Mat((), 0, 0)
        return FlagBetaPair(empty, (), empty, (),
                            ext1_space(flag_m.top, flag_n.top).dim)
    ks = range(mlen - 1)
    # spaces
    e_src = [ext1_space(flag_n.module(k), flag_m.module(k + 1)) for k in ks]
    e_dst = [ext1_space(flag_n.module(k), flag_m.module(k)) for k in ks]
    ep_src = [ext1_space(flag_m.module(k), flag_n.module(k)) for k in ks]
    ep_dst = [ext1_space(flag_m.module(k + 1), flag_n.module(k)) for k in ks]

    src_dims = [s.dim for s in e_src]
    dst_dims = [s.dim for s in e_dst]
    total_src = sum(src_dims)
    total_dst = sum(dst_dims)
    cols = []
    for k in ks:
        for b in range(src_dims[k]):
            coords = tuple(field.one if i == b else field.zero
                           for i in range(src_dims[k]))
            col = [field.zero] * total_dst
            # pushout along M_{k+1} -> M_k lands in block k
            push = transport_class(coords, e_src[k], e_dst[k],
                                   flag_m.incl(k + 1), "pushout")
            off = sum(dst_dims[:k])
            for i, v in enumerate(push):
                col[off + i] = field.add(col[off + i], v)
            # pullback along N_{k+1} -> N_k lands in block k+1
            if k + 1 <= mlen - 2:
                pull = transport_class(coords, e_src[k], e_dst[k + 1],
                                       flag_n.incl(k + 1), "pullback")
                off2 = sum(dst_dims[:k + 1])
                for i, v in enumerate(pull):
                    col[off2 + i] = field.sub(col[off2 + i], v)
            cols.append(tuple(col))
    beta = Mat(tuple(tuple(col[i] for col in cols) for i in range(total_dst)),
               total_dst, total_src) if cols else Mat((), total_dst, 0)
    if not cols:
        beta = Mat(tuple(() for _ in range(total_dst)), total_dst, 0)

    ps_dims = [s.dim for s in ep_src]
    pd_dims = [s.dim for s in ep_dst]
    total_ps = sum(ps_dims)
    total_pd = sum(pd_dims)
    pcols = []
    for k in ks:
        for b in range(ps_dims[k]):
            coords = tuple(field.one if i == b else field.zero
                           for i in range(ps_dims[k]))
            col = [field.zero] * total_pd
            # pullback along M_{k+1} -> M_k lands in block k
            pull = transport_class(coords, ep_src[k], ep_dst[k],
                                   flag_m.incl(k + 1), "pullback")
            off = sum(pd_dims[:k])
            for i, v in enumerate(pull):
                col[off + i] = field.add(col[off + i], v)
            # pushout along N_k -> N_{k-1} lands in block k-1
            if k >= 1:
                push = transport_class(coords, ep_src[k], ep_dst[k - 1],
                                       flag_n.incl(k), "pushout")
                off2 = sum(pd_dims[:k - 1])
                for i, v in enumerate(push):
                    col[off2 + i] = field.sub(col[off2 + i], v)
            pcols.append(tuple(col))
    beta_prime = Mat(tuple(tuple(col[i] for col in pcols)
                           for i in range(total_pd)), total_pd, total_ps) \
        if pcols else Mat(tuple(() for _ in range(total_pd)), total_pd, 0)

    return FlagBetaPair(beta, tuple(dst_dims), beta_prime, tuple(ps_dims),
                        ext1_space(flag_m.top, flag_n.top).dim)


def flag_symmetry_identity(pair: FlagBetaPair, field) -> Tuple[int, int, int]:
    """(dim p0(ker beta'), dim {eps : eps + 0... in im beta}, dim Ext(M,N))."""
    first_dst = pair.beta_blocks_dst[0] if pair.beta_blocks_dst else 0
    first_src = pair.beta_prime_blocks_src[0] if pair.beta_prime_blocks_src else 0
    a = kernel_projection_dim(field, pair.beta_prime, first_src)
    b = image_first_block_dim(field, pair.beta, first_dst)
    return a, b, pair.ext_mn_dim


# ---------------------------------------------------------------------------
# Ext-symmetry audit


@dataclass(frozen=True)
class SymmetryRow:
    left_label: str
    right_label: str
    dim_mn: int
    dim_nm: int

    @property
    def symmetric(self) -> bool:
        return self.dim_mn == self.dim_nm


@dataclass(frozen=True)
class SymmetryReport:
    rows: Tuple[SymmetryRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.symmetric for r in self.rows)

    def failures(self):
        return [r for r in self.rows if not r.symmetric]


def ext_symmetry_audit(pairs, labels=None) -> SymmetryReport:
    """Dimension-level Ext-symmetry audit over (M, N) module pairs."""
    rows = []
    for idx, (m, n) in enumerate(pairs):
        lab = labels[idx] if labels else (f"pair{idx}.M", f"pair{idx}.N")
        rows.append(SymmetryRow(lab[0], lab[1], ext_dim(m, n), ext_dim(n, m)))
    return SymmetryReport(tuple(rows))
