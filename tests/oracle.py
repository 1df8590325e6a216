"""Independent brute-force reference implementations.

Everything here but the last four sections is written from scratch on
plain lists and Fractions (or ints mod p), without importing the
package's linear algebra, so the test suite can cross-check the library
against a second, slower computation of the same quantities.  The last
four sections keep a linear solve, the base change and submodule
witnesses that tests build modules with, and the fit of a single count;
the correction count that enumerates every submodule pair, the
reference for the library's count on block pairs; the maps of the
dimension lemma a + b = dim Ext^1(M, N), beta' and the flag maps, the
reference of the lemma tests; and a flag step onto a one-dimensional
factor through the Hom solver, the reference of its closed form.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# Plain Gaussian elimination (Fractions, or ints mod p when p is given)


def _inv_mod(a, p):
    return pow(a % p, p - 2, p)


def gauss_rank(rows, ncols, p=None):
    """Rank by straightforward elimination on a copy."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            v = m[r][col] % p if p else m[r][col]
            if v != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = _inv_mod(m[rank][col], p) if p else Fraction(1, 1) / m[rank][col]
        m[rank] = [(x * inv) % p if p else x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank:
                f = m[r][col] % p if p else m[r][col]
                if f != 0:
                    m[r] = [(a - f * b) % p if p else a - f * b
                            for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def null_space_dim(rows, ncols, p=None):
    return ncols - gauss_rank(rows, ncols, p)


def hom_equations(m, n):
    """The equations phi_t X_a = Y_a phi_s of Hom(M, N) as plain rows,
    with the number of unknowns: the entries of each phi_v (n_v x m_v,
    row-major, vertices in quiver order)."""
    q = m.algebra.quiver
    off = [0]
    for dm, dn in zip(m.dims, n.dims):
        off.append(off[-1] + dn * dm)
    rows = []
    for arr, xm, xn in zip(q.arrows, m.matrices, n.matrices):
        s, t = q.vertex_index(arr.source), q.vertex_index(arr.target)
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [0] * off[-1]
                for k in range(m.dims[t]):
                    row[off[t] + i * m.dims[t] + k] += xm.rows[k][j]
                for k in range(n.dims[s]):
                    row[off[s] + k * m.dims[s] + j] -= xn.rows[i][k]
                rows.append(row)
    return rows, off[-1]


# ---------------------------------------------------------------------------
# Brute-force subspaces of F_p^n, represented as frozensets of vectors


def all_vectors(n, p):
    return [tuple(v) for v in itertools.product(range(p), repeat=n)]


def span_set(gens, n, p):
    """The set of all linear combinations of the generators."""
    vecs = {tuple([0] * n)}
    for g in gens:
        new = set()
        for v in vecs:
            for c in range(p):
                new.add(tuple((a + c * b) % p for a, b in zip(v, g)))
        vecs = new
    return frozenset(vecs)


@functools.lru_cache(maxsize=None)
def _subspaces_by_dim(n, p):
    """Subspaces of F_p^n grouped by dimension: those of dimension k + 1
    are the spans of one of dimension k and one vector outside it."""
    levels = [[span_set((), n, p)]]
    for _ in range(n):
        grown = {}
        for s in levels[-1]:
            for v in all_vectors(n, p):
                if v not in s:
                    t = frozenset(tuple((a + c * b) % p for a, b in zip(x, v))
                                  for x in s for c in range(p))
                    grown[t] = None
        levels.append(list(grown))
    return levels


def all_subspaces(n, p, k=None):
    """Every subspace of F_p^n (as a frozenset of its vectors), optionally
    only those of dimension k.  Exponential; for tiny n, p only."""
    levels = _subspaces_by_dim(n, p)
    if k is None:
        return [s for level in levels for s in level]
    return list(levels[k]) if 0 <= k <= n else []


def mat_apply(mat, vec, p):
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in mat)


def count_submodules_bruteforce(dims, arrow_data, edims, p):
    """Submodule count by sweeping all per-vertex subspaces.

    arrow_data: list of (source vertex index, target vertex index, matrix
    as row lists with int entries).
    """
    per_vertex = [all_subspaces(d, p, k) for d, k in zip(dims, edims)]
    count = 0
    for combo in itertools.product(*per_vertex):
        ok = True
        for s, t, mat in arrow_data:
            for v in combo[s]:
                if mat_apply(mat, v, p) not in combo[t]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Brute-force module isomorphism over F_p (tiny dims only)


def _invertible_mats(n, p):
    if n == 0:
        yield ()
        return
    for entries in itertools.product(range(p), repeat=n * n):
        mat = tuple(tuple(entries[i * n + j] for j in range(n))
                    for i in range(n))
        if gauss_rank(mat, n, p) == n:
            yield mat


def mats_mul(a, b, p):
    if not a or not b:
        return tuple(() for _ in a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % p
                       for j in range(len(b[0]))) for i in range(len(a)))


def modules_isomorphic_bruteforce(dims, arrows_m, arrows_n, p):
    """Exhaustive search for per-vertex invertible maps g with
    g_t X_a = Y_a g_s for every arrow.  arrows_*: list of (s, t, matrix)."""
    spaces = [list(_invertible_mats(d, p)) for d in dims]
    for combo in itertools.product(*spaces):
        ok = True
        for (s, t, xm), (_, _, yn) in zip(arrows_m, arrows_n):
            if mats_mul(combo[t], xm, p) != mats_mul(yn, combo[s], p):
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Brute-force chain counting


def count_flags_bruteforce(dims, arrow_data, factor_dims, p):
    """Chains of submodules with prescribed per-step quotient dimension
    vectors, by sweeping all subspace tuples at every level.

    factor_dims: list of dimension vectors dropped at each step (in order
    from the whole module down).
    """
    nv = len(dims)
    per_vertex_all = [all_subspaces(d, p) for d in dims]

    def is_stable(combo):
        for s, t, mat in arrow_data:
            for v in combo[s]:
                if mat_apply(mat, v, p) not in combo[t]:
                    return False
        return True

    def sub_dims(combo):
        out = []
        for s in combo:
            d = 0
            while p ** d < len(s):
                d += 1
            out.append(d)
        return tuple(out)

    full = tuple(frozenset(all_vectors(d, p)) for d in dims)
    targets = []
    cur = list(dims)
    for fd in factor_dims:
        cur = [a - b for a, b in zip(cur, fd)]
        targets.append(tuple(cur))

    def rec(prev, k):
        if k == len(targets):
            return 1
        total = 0
        for combo in itertools.product(*per_vertex_all):
            if sub_dims(combo) != targets[k]:
                continue
            if not all(c <= q for c, q in zip(combo, prev)):
                continue
            if not is_stable(combo):
                continue
            total += rec(combo, k + 1)
        return total

    return rec(full, 0)


def gaussian_binomial_int(n, k, q):
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# Brute-force extension tuples


def _block_mul(a, b, ncols, p):
    """a * b mod p for row lists, with the column count of b given (b may
    have no rows)."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % p
             for j in range(ncols)] for i in range(len(a))]


def extension_tuple_satisfies(xdims, ydims, arrows, relations, vals, p):
    """Whether the arrow tuple d with coordinates ``vals`` (the entries of
    each d(a): X_{s(a)} -> Y_{t(a)}, row-major, arrows in order) makes the
    block matrices [[Y_a, d(a)], [0, X_a]] satisfy every relation mod p.

    arrows: list of (source index, target index, X matrix, Y matrix), the
    matrices as row lists.  relations: list of term lists, each term
    (coefficient mod p, source index, target index, arrow indices); the
    leftmost arrow is applied last, and no arrows means the vertex path.
    """
    dims = [y + x for y, x in zip(ydims, xdims)]
    blocks = []
    pos = 0
    for s, t, xm, ym in arrows:
        r, c = ydims[t], xdims[s]
        d = [list(vals[pos + i * c:pos + (i + 1) * c]) for i in range(r)]
        pos += r * c
        blocks.append([list(ym[i]) + d[i] for i in range(r)]
                      + [[0] * ydims[s] + list(xm[i])
                         for i in range(xdims[t])])
    for terms in relations:
        _, src, tgt, _ = terms[0]
        res = [[0] * dims[src] for _ in range(dims[tgt])]
        for coeff, _, _, path in terms:
            acc = [[int(i == j) for j in range(dims[src])]
                   for i in range(dims[src])]
            for ai in reversed(path):
                acc = _block_mul(blocks[ai], acc, dims[src], p)
            res = [[(u + coeff * v) % p for u, v in zip(ru, rv)]
                   for ru, rv in zip(res, acc)]
        if any(any(row) for row in res):
            return False
    return True


def count_extension_tuples(xdims, ydims, arrows, relations, p):
    """Number of arrow tuples satisfying every relation (see
    ``extension_tuple_satisfies``), by sweeping all tuples over F_p."""
    ncoords = sum(ydims[t] * xdims[s] for s, t, _, _ in arrows)
    return sum(1 for vals in itertools.product(range(p), repeat=ncoords)
               if extension_tuple_satisfies(xdims, ydims, arrows, relations,
                                            vals, p))


# ---------------------------------------------------------------------------
# Matrices side by side, a linear solve, base change, submodule witnesses
# and the fit of a single count, on the package's linear algebra and
# fitter.


def hstack(field, mats):
    """The matrices side by side; they must have equal row counts."""
    from extsym.linalg import LinAlgError, Mat
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise LinAlgError("hstack row mismatch")
    rows = tuple(tuple(itertools.chain.from_iterable(m.rows[i] for m in mats))
                 for i in range(nrows))
    return Mat(rows, nrows, sum(m.ncols for m in mats))


def mat_inv(field, a):
    """Inverse of a square matrix, or None if singular."""
    from extsym.linalg import LinAlgError, Mat, identity, rref
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


def solve(field, a, b):
    """One solution of a x = b, or None if inconsistent."""
    from extsym.linalg import LinAlgError, Mat, rref
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


def conjugate(m, g):
    """Base change by a per-vertex invertible tuple: X_a -> g_t X_a g_s^-1."""
    from extsym.linalg import mat_mul
    from extsym.modules import ModuleError, RepModule
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


def witness_from_rows(m, rows_by_vertex):
    """One subspace per vertex, the span of its rows: a witness for
    ``modules.submodule`` and ``sub_quotient``."""
    from extsym.linalg import span
    return tuple(span(m.field, rows, m.dims[i])
                 for i, rows in enumerate(rows_by_vertex))


def fit_count(label, counter, bound, primes):
    """The Euler characteristic of one count ``counter(q)`` of the given
    degree bound: ``euler.euler_of`` on a table of one key."""
    from extsym.euler import euler_of
    return euler_of(label, lambda q, keys: {"count": counter(q)},
                    {"count": bound}, primes)["count"]


# ---------------------------------------------------------------------------
# The correction term by every submodule pair.  Unlike the rest of this
# file it runs on the package's Ext machinery: it is the reference for the
# localised ``counting.count_efg``, which counts block pairs only.


def count_efg_pairs(n, m):
    """Point counts of the correction set of (M, N) over GF(p) at every
    dimension vector e between 0 and dims(M) + dims(N), zeros included:

        sum over M1 <= M, N1 <= N with dims e1 + e2 = e
            of (q^w - 1)/(q - 1) * q^h,

    with w = dim push(ker pull) of the paired transport map beta and
    h = dim Hom(M1, N/N1), the dimension of the affine space of
    compatible subspaces."""
    from extsym.counting import _vertex_walk
    from extsym.ext import beta_map, pushed_kernel_dim
    from extsym.modules import hom_dim, sub_quotient
    q = m.field.char
    top = tuple(a + b for a, b in zip(m.dims, n.dims))
    table = {e: 0 for e in itertools.product(*[range(d + 1) for d in top])}

    def subs(x):
        return [(e, sub_quotient(x, spaces))
                for e in itertools.product(*[range(d + 1) for d in x.dims])
                for spaces, _ in _vertex_walk(x, e, False)]

    m1_subs = subs(m)
    for e2, (n1, n_quot, n1_incl, _) in subs(n):
        for e1, (m1, _, m1_incl, _) in m1_subs:
            w = pushed_kernel_dim(m.field, *beta_map(n, m, n1, n1_incl,
                                                     m1, m1_incl))
            if w:
                e = tuple(a + b for a, b in zip(e1, e2))
                table[e] += (q ** w - 1) // (q - 1) * q ** hom_dim(m1,
                                                                   n_quot)
    return table


def efg_degree_bound(m_dims, n_dims, ext_nm_dim):
    """Degree bound of every row of ``count_efg_pairs``.  The M1 and N1
    lie in products of vertex Grassmannians, w is at most
    dim Ext^1(N, M) and h at most the dimension of the vertex-wise linear
    maps M1 -> N/N1, so each row is bounded by the maximum over e1 inside
    M and e2 inside N of

        sum e1_i (m_i - e1_i) + sum e2_i (n_i - e2_i)
          + sum e1_i (n_i - e2_i) + dim Ext^1(N, M) - 1,

    maximised one vertex at a time; 0 when that maximum is negative."""
    best = sum(max(a * (m - a) + b * (n - b) + a * (n - b)
                   for a in range(m + 1) for b in range(n + 1))
               for m, n in zip(m_dims, n_dims))
    return max(best + ext_nm_dim - 1, 0)


# ---------------------------------------------------------------------------
# The dimension lemma a + b = dim Ext^1(M, N), on a pair of submodules and
# on a pair of flags: the reference of the lemma tests.  It runs on the
# package's Ext spaces and transports; the library keeps only beta.


def _transport(x, y, x2, y2, maps, side, sign=1):
    """sign times the transport from Ext^1(x, y) to Ext^1(x2, y2)."""
    from extsym.ext import ext1_space, transport_matrix
    from extsym.linalg import normalised
    t = transport_matrix(ext1_space(x, y), ext1_space(x2, y2), maps, side)
    return normalised(x.field, [[sign * v for v in r] for r in t.rows],
                      t.ncols)


def kernel_projection_dim(field, matrix, first_block):
    """dim of the projection of ker(matrix) onto its first coordinates."""
    from extsym.linalg import kernel_basis, span
    return span(field, [row[:first_block]
                        for row in kernel_basis(field, matrix).rows],
                first_block).dim


def lemma_dims(m, n, m1, m1_incl, n1, n1_incl):
    """(a, b) on the submodules M1 <= M, N1 <= N: a = dim p0(ker beta')
    for beta' = [pull | -push]: Ext^1(M, N) + Ext^1(M1, N1) -> Ext^1(M1, N)
    along M1 -> M and N1 -> N, and b = dim push(ker pull) of beta."""
    from extsym.ext import beta_map, pushed_kernel_dim
    field = m.field
    pull = _transport(m, n, m1, n, m1_incl, "pullback")
    beta_prime = hstack(field, [pull, _transport(m1, n1, m1, n, n1_incl,
                                                 "pushout", -1)])
    return (kernel_projection_dim(field, beta_prime, pull.ncols),
            pushed_kernel_dim(field, *beta_map(n, m, n1, n1_incl, m1,
                                               m1_incl)))


def _block_matrix(blocks, count):
    """The matrix with block (i, j) = blocks[i, j], zero where absent, for
    i, j < count; the diagonal blocks are all given and fix the sizes."""
    from extsym.linalg import Mat
    diag = [blocks[k, k] for k in range(count)]
    roff = [0, *itertools.accumulate(b.nrows for b in diag)]
    coff = [0, *itertools.accumulate(b.ncols for b in diag)]
    rows = [[0] * coff[-1] for _ in range(roff[-1])]
    for (i, j), b in blocks.items():
        for r, brow in enumerate(b.rows):
            rows[roff[i] + r][coff[j]:coff[j] + b.ncols] = brow
    return Mat(tuple(map(tuple, rows)), roff[-1], coff[-1])


def flag_lemma_dims(m, steps_m, n, steps_n):
    """(a, b) on flags M = M_0 >= ... >= M_l = 0 and N = N_0 >= ... >=
    N_l = 0, l >= 2, given by their steps (M_k, inclusion M_k -> M_(k-1)),
    k = 1..l.  With blocks k = 0..l-2,

    beta : sum Ext(N_k, M_{k+1}) -> sum Ext(N_k, M_k), block k of the
        image push_{M_{k+1}->M_k}(eps_k) - pull_{N_k->N_{k-1}}(eps_{k-1}),
    beta': sum Ext(M_k, N_k) -> sum Ext(M_{k+1}, N_k), block k of the
        image pull_{M_{k+1}->M_k}(eta_k) - push_{N_{k+1}->N_k}(eta_{k+1}),

    eps and eta outside 0..l-2 being zero; a = dim p0(ker beta') and
    b = dim {v : (v, 0, ..., 0) in im beta}."""
    from extsym.ext import pushed_kernel_dim
    from extsym.linalg import Mat
    ms, ns = [m, *(x for x, _ in steps_m)], [n, *(x for x, _ in steps_n)]
    count = len(steps_m) - 1
    beta, beta_prime = {}, {}
    for k in range(count):
        # the inclusions M_{k+1} -> M_k and N_{k+1} -> N_k
        incl_m, incl_n = steps_m[k][1], steps_n[k][1]
        beta[k, k] = _transport(ns[k], ms[k + 1], ns[k], ms[k], incl_m,
                                "pushout")
        beta_prime[k, k] = _transport(ms[k], ns[k], ms[k + 1], ns[k],
                                      incl_m, "pullback")
        if k + 1 < count:
            beta[k + 1, k] = _transport(ns[k], ms[k + 1], ns[k + 1],
                                        ms[k + 1], incl_n, "pullback", -1)
        if k:
            beta_prime[k - 1, k] = _transport(ms[k], ns[k], ms[k], ns[k - 1],
                                              steps_n[k - 1][1], "pushout",
                                              -1)
    # b: the first block of rows of beta on the kernel of the others
    head, beta = beta[0, 0].nrows, _block_matrix(beta, count)
    return (kernel_projection_dim(m.field, _block_matrix(beta_prime, count),
                                  beta_prime[0, 0].ncols),
            pushed_kernel_dim(m.field,
                              Mat(beta.rows[:head], head, beta.ncols),
                              Mat(beta.rows[head:], beta.nrows - head,
                                  beta.ncols)))


# ---------------------------------------------------------------------------
# A flag step through the Hom solver: the reference of the library's
# closed form for a one-dimensional factor.  It runs on the package's Hom
# spaces and linear algebra.


def quotient_kernels_by_hom(m, simple):
    """The (kernel, weight) pairs of ``counting._quotient_kernels`` for a
    one-dimensional factor, built from ``hom_basis(M, S)`` and
    ``hom_basis(S, M)``: the pairing P[i][j] = phi_j o iota_i, the split
    lines as one kernel of a basis map whose column of P is nonzero, and
    each map of a line put in reduced echelon form, its kernel read off
    the transposed quotient projection of that form."""
    from extsym.linalg import (Mat, Subspace, enumerate_subspaces,
                               identity, kernel_basis, mat_mul, mat_vec,
                               quotient_projection, rref, transpose)
    from extsym.modules import RepModule, hom_basis
    field = m.field
    p = field.char
    q = m.algebra.quiver
    v = simple.dims.index(1)
    basis = hom_basis(m, simple).basis
    h = len(basis)
    units = identity(field, h).rows
    unsplit, split = units, ()
    inj = hom_basis(simple, m).basis
    if inj:
        # row j: phi_j o iota_i for every i, the column j of P
        pairs = mat_mul(field,
                        Mat(tuple(phi[v].rows[0] for phi in basis), h,
                            m.dims[v]),
                        hstack(field, [iota[v] for iota in inj]))
        unsplit = kernel_basis(field, transpose(pairs)).rows
        split = tuple(e for e, row in zip(units, pairs.rows)
                      if any(row))[:1]
    gens = Mat(split + unsplit, len(split) + len(unsplit), h)
    lines = [((0,) * len(split) + line.mat.rows[0], 1)
             for line in enumerate_subspaces(len(unsplit), 1, p)]
    if split:
        lines.insert(0, ((1,) + (0,) * len(unsplit),
                         (p ** h - p ** len(unsplit)) // (p - 1)))
    d = m.dims[v]
    entries = Mat(tuple(phi[v].rows[0] for phi in basis), h, d)
    coeffs = transpose(mat_mul(field, gens, entries))
    ends = [(q.vertex_index(a.source), q.vertex_index(a.target))
            for a in q.arrows]
    out = []
    for line, weight in lines:
        red, pivots = rref(field, Mat((mat_vec(field, coeffs, line),), 1, d))
        if len(pivots) != 1:  # not onto
            continue
        u = Subspace(field, d, red, pivots)
        kernel = transpose(quotient_projection(field, u))
        free = [c for c in range(d) if c not in pivots]
        mats = []
        for (s, t), x in zip(ends, m.matrices):
            if t == v:
                x = Mat(tuple(x.rows[f] for f in free), len(free), x.ncols)
            mats.append(mat_mul(field, x, kernel) if s == v else x)
        dims = tuple(len(free) if i == v else e
                     for i, e in enumerate(m.dims))
        out.append((RepModule(m.algebra, field, dims, tuple(mats)), weight))
    return out
