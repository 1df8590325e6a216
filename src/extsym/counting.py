"""Point counts over prime fields.

Everything here counts finite sets attached to modules over GF(p):
submodules with a fixed dimension vector, chains of submodules with simple
quotients in a prescribed order, orbit strata of extension classes, and the
correction-term count pairing block submodule pairs with extension data.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, Sequence, Tuple

from . import memo
from .ext import (beta_map, ext1_equations, ext1_space, ext_dim,
                  middle_term, pushed_kernel_dim)
from .fields import QQ, FieldError
from .linalg import (Mat, Subspace, contains_vector, enumerate_subspaces,
                     gaussian_binomial, hstack, identity,
                     integer_rank_minor, kernel_basis, mat_mul, mat_vec,
                     quotient_projection, rank, rref, span, transpose)
from .modules import (Catalog, ModuleError, RepModule, UndecidableError,
                      _hom_system, blocks, direct_sum, hom_basis, hom_dim,
                      is_isomorphic, reduce_module, submodule, zero_module)


class CountError(ValueError):
    pass


def _prime(field, what: str) -> int:
    """The characteristic of a prime field; a ``CountError`` over Q."""
    if not field.char:
        raise CountError(f"{what} requires a prime field")
    return field.char


def _same_ring(x: RepModule, ref: RepModule, subject: str, owner: str):
    """Refuse X, named ``subject``, unless it is over the algebra (by
    ``key()``) and the field of ``ref``, named ``owner``."""
    if x.algebra.key() != ref.algebra.key():
        raise CountError(f"{subject} is a module over another algebra than "
                         f"{owner}'s")
    if x.field != ref.field:
        raise CountError(f"{subject} is over {x.field}, {owner} over "
                         f"{ref.field}")


# ---------------------------------------------------------------------------
# Submodules with a fixed dimension vector


def _vertex_walk(m: RepModule, edims: Sequence[int], count_last: bool):
    """Submodules with dimension vector e, fixed one vertex at a time in
    quiver order, as (per-vertex subspaces, weight) pairs.

    Each arrow s -> t is checked once.  With s < t it makes ``low``, the
    span of the images of the fixed U_s, which U_t must contain; with
    s > t it makes ``up``, the preimage of the fixed U_t, in which U_s
    must lie.  The subspaces between them of the right dimension are
    ``low`` plus a subspace of a fixed complement of ``low`` in ``up``;
    only loops are checked on a candidate.  With ``count_last`` a last
    vertex without loops is not enumerated: the walk yields the subspaces
    of the other vertices, weighted by the number of its choices.
    Otherwise every weight is 1.
    """
    field = m.field
    p = _prime(field, "submodule enumeration")
    if len(edims) != len(m.dims):
        raise CountError("dimension vector length mismatch")
    if any(e < 0 or e > d for e, d in zip(edims, m.dims)):
        return
    q = m.algebra.quiver
    nv = len(m.dims)
    into = [[] for _ in range(nv)]    # (s, A) for arrows s -> v, s < v
    out = [[] for _ in range(nv)]     # (t, A) for arrows v -> t, t < v
    loops = [[] for _ in range(nv)]
    for arr, a in zip(q.arrows, m.matrices):
        s, t = q.vertex_index(arr.source), q.vertex_index(arr.target)
        if s < t:
            into[t].append((s, a))
        elif s > t:
            out[s].append((t, a))
        else:
            loops[s].append(a)
    fixed = []

    def rec(v):
        if v == nv:
            yield tuple(fixed), 1
            return
        d = m.dims[v]
        low = span(field, [mat_vec(field, a, u) for s, a in into[v]
                           for u in fixed[s].mat.rows], d)
        k = edims[v] - low.dim
        if k < 0:
            return
        # x lies in up when A x projects to zero modulo U_t
        eqs = [row for t, a in out[v] for row in mat_mul(
            field, quotient_projection(field, fixed[t]), a).rows]
        if eqs:
            eq_mat = Mat(tuple(eqs), len(eqs), d)
            if any(any(mat_vec(field, eq_mat, u)) for u in low.mat.rows):
                return
            up = kernel_basis(field, eq_mat).rows
        else:
            up = identity(field, d).rows
        if count_last and v == nv - 1 and not loops[v]:
            yield tuple(fixed), gaussian_binomial(len(up) - low.dim, k, p)
            return
        # the up rows off the pivots of low, read in up coordinates,
        # complete low to up
        taken = set()
        if low.dim:
            upiv = [r.index(1) for r in up]
            taken = set(span(field, [[u[c] for c in upiv]
                                     for u in low.mat.rows], len(up)).pivots)
        comp = Mat.from_rows([r for i, r in enumerate(up) if i not in taken],
                             d)
        for sub in enumerate_subspaces(comp.nrows, k, p):
            u = span(field, low.mat.rows + mat_mul(field, sub.mat, comp).rows,
                     d)
            if all(contains_vector(field, u, mat_vec(field, a, x))
                   for a in loops[v] for x in u.mat.rows):
                fixed.append(u)
                yield from rec(v + 1)
                fixed.pop()

    yield from rec(0)


def iter_submodules(m: RepModule,
                    edims: Sequence[int]) -> Iterator[Tuple[Tuple, ...]]:
    """All submodules of a GF(p) module with the given dimension vector,
    as per-vertex row tuples (canonical echelon bases), each once.

    Enumerated vertex by vertex in quiver order: at each vertex only the
    subspaces that contain the images of the subspaces already fixed and
    map into them are generated, so no candidate outside the submodule
    variety is built except for loops, which are checked.
    """
    for spaces, _ in _vertex_walk(m, edims, False):
        yield tuple(u.mat.rows for u in spaces)


def count_grassmannian(m: RepModule, edims: Sequence[int]) -> int:
    """Number of submodules of a GF(p) module with dimension vector e.

    The vertex walk of ``iter_submodules``, except that a last vertex
    without loops is counted in closed form: its choices are the
    subspaces of one dimension in a quotient space, a Gaussian binomial.
    """
    return sum(w for _, w in _vertex_walk(m, edims, True))


# ---------------------------------------------------------------------------
# Flags with prescribed simple quotients


def _quotient_kernels(m: RepModule, simple: RepModule):
    """The submodules K <= M with M/K isomorphic to a given simple, as
    (kernel module, weight) pairs: the kernels of the maps M -> S that are
    onto at every vertex, the weights summing to their number.

    Split lines are counted in closed form.  For S one-dimensional, pair
    the bases of Hom(S, M) and Hom(M, S) by P[i][j] = phi_j o iota_i in
    End S = F_p, and let Z be the coefficient vectors c with P c = 0; then
    k = rank P is the multiplicity of S as a direct summand of M and Z has
    dimension h - k.  A map phi off Z has phi o iota != 0 for some iota,
    which splits it, M = iota(S) + ker phi, so by Krull-Schmidt
    cancellation all their kernels are isomorphic.  The (p^h - p^(h-k)) /
    (p - 1) lines off Z are yielded as one kernel, of a basis map whose
    column of P is nonzero, with that weight; each line of Z is yielded
    with weight 1.  For any other factor k = 0 and Z is all of Hom(M, S).

    Each map taken, the split basis map or a line of Z, is put in reduced
    echelon form R at the vertices where S is nonzero; it is onto when R
    has a row per dimension of S there.  The kernel has the basis
    e_c - sum_r R[r][c] e_pivot(r) over the free (non-pivot) columns c,
    the columns of the transposed quotient projection of the row space of
    R, so a kernel vector's coordinates are its entries at the free
    columns, and each arrow of K is M's arrow times that basis, read at
    the free columns of its target.  Vertices where S vanishes keep all
    of M.  A kernel fixes its echelon form, so kernels are deduplicated
    by those rows.
    """
    field = m.field
    p = field.char
    q = m.algebra.quiver
    basis = hom_basis(m, simple).basis
    h = len(basis)
    units = identity(field, h).rows
    unsplit, split = units, ()
    inj = hom_basis(simple, m).basis if simple.total_dim == 1 else ()
    if inj:
        v = simple.dims.index(1)
        # row j: phi_j o iota_i for every i, the column j of P
        pairs = mat_mul(field,
                        Mat(tuple(phi[v].rows[0] for phi in basis), h,
                            m.dims[v]),
                        hstack(field, [iota[v] for iota in inj]))
        unsplit = kernel_basis(field, transpose(pairs)).rows
        split = tuple(e for e, row in zip(units, pairs.rows)
                      if any(row))[:1]
    gens = Mat(split + unsplit, len(split) + len(unsplit), h)
    lines = (((0,) * len(split) + line.mat.rows[0], 1)
             for line in enumerate_subspaces(len(unsplit), 1, p))
    if split:
        lines = itertools.chain(
            [((1,) + (0,) * len(unsplit),
              (p ** h - p ** len(unsplit)) // (p - 1))], lines)
    # per vertex of S, the matrix taking coefficients over gens to the
    # entries of the map there, row by row
    support = []
    for i, (rk, d) in enumerate(zip(simple.dims, m.dims)):
        if rk:
            entries = Mat(tuple(tuple(x for r in phis[i].rows for x in r)
                                for phis in basis), h, rk * d)
            support.append((i, rk, d,
                            transpose(mat_mul(field, gens, entries))))
    ends = [(q.vertex_index(a.source), q.vertex_index(a.target))
            for a in q.arrows]
    seen = set()
    for line, weight in lines:
        echelon = {}
        for i, rk, d, coeffs in support:
            flat = mat_vec(field, coeffs, line)
            red, pivots = rref(field, Mat(
                tuple(flat[r * d:(r + 1) * d] for r in range(rk)), rk, d))
            if len(pivots) != rk:  # not onto at vertex i
                break
            echelon[i] = Subspace(field, d, red, pivots)
        else:
            key = tuple(u.mat.rows for u in echelon.values())
            if key in seen:
                continue
            seen.add(key)
            # columns: the kernel basis at each vertex of S
            kernel = {i: transpose(quotient_projection(field, u))
                      for i, u in echelon.items()}
            free = [range(d) if i not in echelon else
                    [c for c in range(d) if c not in echelon[i].pivots]
                    for i, d in enumerate(m.dims)]
            mats = []
            for (s, t), x in zip(ends, m.matrices):
                if t in echelon:
                    x = Mat(tuple(x.rows[f] for f in free[t]), len(free[t]),
                            x.ncols)
                mats.append(mat_mul(field, x, kernel[s]) if s in kernel
                            else x)
            yield RepModule(m.algebra, field, tuple(map(len, free)),
                            tuple(mats)), weight


# Isomorphism classes of GF(p) modules, the submodules with one simple
# quotient of each class (with multiplicities: Hall numbers), and the flag
# counts per class.  Class ids come from a counter and are never reused.
_class_ids = itertools.count()
_class_buckets = memo.table()  # isomorphism invariants -> [(id, rep), ...]


@memo.cached(lambda m: m.key())
def _module_class(m: RepModule):
    """(class id, representative) of a GF(p) module.

    Modules are compared with ``is_isomorphic`` only against the
    representatives sharing their algebra, field, dimension vector and
    arrow ranks, which are isomorphism invariants.  A module whose
    comparison is undecidable forms a class of its own presentation:
    classes may split, they never merge unproven.
    """
    bucket_key = (m.key()[:3], tuple(rank(m.field, a) for a in m.matrices))
    bucket = _class_buckets.get(bucket_key)
    if bucket is None:
        bucket = memo.remember(_class_buckets, bucket_key, [])
    try:
        hit = next((c for c in bucket if is_isomorphic(m, c[1])[0]), None)
    except UndecidableError:
        hit = (next(_class_ids), m)
    if hit is None:
        hit = (next(_class_ids), m)
        bucket.append(hit)
    return hit


@memo.cached(lambda cid, rep, simple: (cid, simple.key()))
def _class_children_of(cid, rep: RepModule, simple: RepModule):
    """Classes of the submodules K <= rep with rep/K isomorphic to the
    simple, as (class id, representative, number of such K): the weights
    of the kernels of ``_quotient_kernels`` summed per class, so the split
    lines of a one-dimensional simple add their number at once."""
    mult: Dict[int, list] = {}
    for kernel, weight in _quotient_kernels(rep, simple):
        ccid, crep = _module_class(kernel)
        mult.setdefault(ccid, [ccid, crep, 0])[2] += weight
    return tuple(tuple(v) for v in mult.values())


@memo.cached(lambda cid, rep, jseq, simples, skeys: (cid, jseq, skeys))
def _chains(cid, rep: RepModule, jseq: Tuple[int, ...],
            simples: Sequence[RepModule], skeys: tuple) -> int:
    """Number of flags of type ``jseq`` of the class ``cid``, whose
    representative is ``rep``, over the simples with keys ``skeys``."""
    if not jseq:
        return 1
    return sum(mult * _chains(ccid, crep, jseq[1:], simples, skeys)
               for ccid, crep, mult in
               _class_children_of(cid, rep, simples[jseq[0]]))


def count_flags(m: RepModule, jseq: Sequence[int],
                simples: Sequence[RepModule]) -> int:
    """Number of chains of submodules M = M_0 > M_1 > ... > 0 whose step k
    has quotient isomorphic to the simple with index ``jseq[k]``.

    The type must drop exactly the dimension vector of the module.
    Counted without materializing the chains, by recursion over
    isomorphism classes: the number of chains below a submodule depends
    only on its class, so the count is the sum, over the classes of
    submodules with the first simple as quotient, of their Hall
    multiplicities times the count of the remaining type.  The children of
    a (class, simple) are enumerated once and shared by every flag type;
    counts are cached by (class, remaining type, simples).  For a
    one-dimensional simple the maps onto it that split off a copy of it
    all have isomorphic kernels (Krull-Schmidt), so they add their number
    of lines to one class at once and only the unsplit lines are built.
    """
    _prime(m.field, "flag counting")
    for i, s in enumerate(simples):
        _same_ring(s, m, f"simple {i}", "the module")
        if s.is_zero():  # every chain through it would go uncounted
            raise CountError(
                f"the list of simples holds a zero module at index {i}")
    jseq = tuple(jseq)
    bad = [j for j in jseq if not 0 <= j < len(simples)]
    if bad:
        raise CountError(
            f"flag type indices out of range for {len(simples)} simples: "
            f"{', '.join(map(str, bad))}")
    dropped = tuple(sum(simples[j].dims[i] for j in jseq)
                    for i in range(len(m.dims)))
    if dropped != m.dims:
        raise CountError(
            f"flag type drops {dropped}, module has dimension vector {m.dims}")
    skeys = tuple(s.key() for s in simples)
    return _chains(*_module_class(m), jseq, simples, skeys)


# ---------------------------------------------------------------------------
# Strata of the projectivized extension space


def stratify_ext_classes(m: RepModule, n: RepModule,
                         catalog: Dict[str, RepModule]) -> Dict[str, int]:
    """Partition the nonzero classes of Ext^1(M, N), up to scalar, by the
    isomorphism type of the middle term.

    Counts are numbers of lines, per catalog entry of the middle term's
    dimension vector.  The entries and the middle terms are classified
    by ``_module_class``; the first entry of a class names it, so a
    middle term presented exactly as an entry matches it without a
    search.  A middle term whose class no entry shares, the catalog
    lacking it or an isomorphism test being undecidable, is reported as
    an incomplete catalog.
    """
    q = _prime(m.field, "stratification of extension classes")
    space = ext1_space(m, n)
    mid_dims = tuple(a + b for a, b in zip(m.dims, n.dims))
    counts: Dict[str, int] = {}
    names: Dict[int, str] = {}
    for lab, c in catalog.items():
        _same_ring(c, m, f"catalog entry {lab}", "the extension")
        if c.dims == mid_dims:
            counts[lab] = 0
            names.setdefault(_module_class(c)[0], lab)
    for line in enumerate_subspaces(space.dim, 1, q):
        label = names.get(
            _module_class(middle_term(space, line.mat.rows[0]))[0])
        if label is None:
            raise CountError(
                f"catalog incomplete: no entry matches a middle term with "
                f"dimension vector {mid_dims}, or an isomorphism test was "
                f"undecidable")
        counts[label] += 1
    expected = (q ** space.dim - 1) // (q - 1) if space.dim else 0
    if sum(counts.values()) != expected:
        raise CountError("stratification total mismatch")
    return counts


@memo.cached(lambda named, dims: (
    tuple((lab, x.key()) for lab, x in named), dims))
def _named_sums(named, dims) -> Dict[Tuple[str, ...], RepModule]:
    """Every direct sum of the named modules with the given dimension
    vector, keyed by its summands' labels in naming order.  Each sum is
    the previous one plus one summand, so sums sharing their first
    summands share those steps."""
    sums: Dict[Tuple[str, ...], RepModule] = {}

    def rec(i, rest, parts, acc):
        # direct sums of named modules i, i+1, ... of dimension vector rest
        if not any(rest):
            sums[parts] = acc
            return
        if i == len(named):
            return
        rec(i + 1, rest, parts, acc)
        lab, x = named[i]
        left = tuple(a - b for a, b in zip(rest, x.dims))
        if min(left) >= 0:
            rec(i, left, parts + (lab,), direct_sum(acc, x))

    x = named[0][1]
    rec(0, tuple(dims), (), zero_module(x.algebra, x.field))
    return sums


@memo.cached(lambda m, catalog, label: (
    m.key(),
    tuple((lab, catalog[lab].key()) for lab in catalog.indecomposables)))
def named_summands(m: RepModule, catalog: Catalog,
                   label: str = "module") -> Tuple[str, ...]:
    """The labels of the named indecomposables of a catalog whose direct
    sum is M, repeated by multiplicity, in naming order.

    A module presented exactly as one of the direct sums of named modules
    (``_named_sums``) is isomorphic to it through the identity, so its
    summands are read from its presentation.  Any other module is matched
    by its Hom vector over the named modules to the first sum with the
    same vector, and confirmed isomorphic to it once.  A module with no
    such decomposition is a ``CountError`` that names it by ``label``.
    """
    named = tuple((lab, catalog[lab]) for lab in catalog.indecomposables)
    sums = _named_sums(named, m.dims)
    parts = next((ps for ps, s in sums.items() if s.key() == m.key()), None)
    if parts is not None:
        return parts
    names = ", ".join(lab for lab, _ in named)
    vec = tuple(hom_dim(x, m) for _, x in named)
    parts = next((ps for ps, s in sums.items()
                  if tuple(hom_dim(x, s) for _, x in named) == vec), None)
    if parts is None:
        raise CountError(
            f"{label} has Hom vector {vec} over the named indecomposables "
            f"{names}, that of no direct sum of them: the catalog does not "
            f"name all of its indecomposables")
    try:
        iso = is_isomorphic(m, sums[parts])[0]
    except UndecidableError:
        iso = False
    if not iso:
        raise CountError(
            f"{label} has the Hom vector of {'+'.join(parts)} over the "
            f"named indecomposables {names} but is not confirmed isomorphic "
            f"to it: the catalog does not name all of its indecomposables")
    return parts


# ---------------------------------------------------------------------------
# Correction term: block submodule pairs weighted by extension classes


@memo.cached(lambda x: x.key())
def _part_submodules(x: RepModule) -> list:
    """The (submodule, inclusion) pairs of a GF(p) part, at every
    dimension vector.  The rows of ``iter_submodules`` are in echelon
    form, the pivot of a row its first 1, so they are the witness as they
    stand and the inclusion their transpose."""
    out = []
    for e in itertools.product(*[range(d + 1) for d in x.dims]):
        for rows in list(iter_submodules(x, e)):
            mats = [Mat(r, len(r), d) for r, d in zip(rows, x.dims)]
            witness = [Subspace(x.field, d, u,
                                tuple(r.index(1) for r in u.rows))
                       for d, u in zip(x.dims, mats)]
            out.append((submodule(x, witness), tuple(map(transpose, mats))))
    return out


@memo.cached(lambda x, y: (x.key(), y.key()))
def _part_widths(x: RepModule, y: RepModule) -> list:
    """w_ij of a pair of GF(p) parts (N_i, M_j): for each submodule of X
    and each of Y, in ``_part_submodules`` order, w = dim push(ker pull)
    of their paired transport map beta."""
    ys = _part_submodules(y)
    return [[pushed_kernel_dim(x.field,
                               *beta_map(x, y, n1, n1_incl, m1, m1_incl))
             for m1, m1_incl in ys]
            for n1, n1_incl in _part_submodules(x)]


def count_efg(n_parts: Sequence[RepModule],
              m_parts: Sequence[RepModule]) -> Dict[Tuple[int, ...], int]:
    """Point counts with the Euler characteristics of the correction set
    at every dimension vector e between 0 and dims(M) + dims(N), zeros
    included, for M and N the direct sums of the GF(p) parts; an empty
    list is the zero module.

    The correction set holds (M1 <= M, N1 <= N, class up to scalar,
    compatible subspace) with dims M1 + dims N1 = e; over (M1, N1) the
    classes form P^(w-1), w = dim push(ker pull) of the paired transport
    map beta, and the subspaces an affine space.  The block sums of
    submodules of the parts hold every point fixed by the torus scaling
    each part, so (Bialynicki-Birula) the count at e is the sum over
    block pairs of (q^w - 1)/(q - 1); the parts [N] and [M] give every
    pair.  Ext^1 is additive and the
    inclusions of block sums are block-diagonal, so the paired map splits
    over the pairs (N_i, M_j) of parts and w is the sum of their w_ij.
    The submodules of a part and the w_ij of a pair of parts are
    memoised by module keys, so each is built once per part and prime
    across calls, and no block sum or direct sum is built.
    """
    parts = [*n_parts, *m_parts]
    if not parts:
        raise CountError("correction counting needs at least one part")
    alg, field = parts[0].algebra, parts[0].field
    for side, ps in (("N", n_parts), ("M", m_parts)):
        for i, x in enumerate(ps):
            _same_ring(x, parts[0], f"part {i} of {side}", "the first part")
    q = _prime(field, "correction counting")
    nn = len(n_parts)
    subs = [_part_submodules(x) for x in parts]
    w = [[_part_widths(x, y) for y in m_parts] for x in n_parts]
    table = {e: 0 for e in itertools.product(
        *[range(sum(x.dims[v] for x in parts) + 1)
          for v in range(len(alg.quiver.vertices))])}
    for choice in itertools.product(*[range(len(s)) for s in subs]):
        wt = sum(w[a][b][i][j]
                 for a, i in enumerate(choice[:nn])
                 for b, j in enumerate(choice[nn:]))
        e = tuple(map(sum, zip(*[s[i][0].dims
                                 for s, i in zip(subs, choice)])))
        table[e] += (q ** wt - 1) // (q - 1)
    return table


# ---------------------------------------------------------------------------
# Prime screening


@memo.cached(lambda x, y: (x.key(), y.key()))
def prime_certificate(x: RepModule, y: RepModule) -> int:
    """A positive integer with this property: at every prime that does not
    divide it, the reductions of X and Y exist and keep dim Hom(X, Y) and
    dim Ext^1(X, Y).  It is 0, which tells nothing, unless both modules
    are rational.

    Over any field dim Hom = cols(H) - rank H for the Hom system H, and
    dim Ext^1 = cols(E) - rank E - rank H for the Ext^1 equation matrix E
    (the trivial tuples are the column space of H).  Ranks can
    only drop mod p, so p keeps both dimensions when it keeps rank H and
    rank E.  The certificate is the product of the lcm of all denominators
    (module entries and relation coefficients), the factors that scale the
    rows of H and E to integers, and one nonzero maximal minor of each.

    When X or Y has several ``blocks``, it is the lcm of the denominators
    times the product of the certificates of the pairs of blocks: a prime
    that divides none of them reduces X and Y block by block and keeps the
    dimensions of every pair of blocks, whose sums are those of (X, Y).
    """
    if not (isinstance(x.field, QQ) and isinstance(y.field, QQ)):
        return 0
    dens = [v.denominator for m in (x, y) for mat in m.matrices
            for row in mat.rows for v in row]
    dens += [c.denominator for rel in x.algebra.relations
             for c, _ in rel.terms]
    cert = math.lcm(*dens)
    bx, by = blocks(x), blocks(y)
    if len(bx) > 1 or len(by) > 1:
        return cert * math.prod(prime_certificate(a, b)
                                for a in bx for b in by)
    for mat in (_hom_system(x, y)[0], ext1_equations(x, y)):
        rows = []
        for row in mat.rows:
            scale = math.lcm(*(v.denominator for v in row))
            rows.append([v.numerator * (scale // v.denominator)
                         for v in row])
            cert *= scale
        cert *= integer_rank_minor(rows, mat.ncols)[1]
    return cert


def good_prime_for_pairs(pairs: Sequence[Tuple[RepModule, RepModule]],
                         p: int) -> bool:
    """Whether reduction mod p preserves the Hom and Ext dimensions of the
    given rational module pairs (and the reductions themselves exist).

    A pair whose certificate p does not divide passes at once; the others
    are reduced mod p and their dimensions compared.  One minor is
    sufficient, not necessary, so divisibility alone rejects nothing.
    """
    doubtful = [(a, b) for a, b in pairs if prime_certificate(a, b) % p == 0]
    try:
        reduced = [(reduce_module(a, p), reduce_module(b, p))
                   for a, b in doubtful]
    except (FieldError, ModuleError):
        return False
    for (a, b), (ra, rb) in zip(doubtful, reduced):
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
