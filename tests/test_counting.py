"""Point counting over prime fields: submodule Grassmannians, chains of
submodules with simple quotients, middle-term strata, the correction-set
count, and prime screening."""

import collections
import functools
import itertools
from fractions import Fraction

import pytest

from extsym import counting, memo
from extsym.algebra import AlgebraPresentation, make_quiver
from extsym.counting import (CountError, count_efg, count_flags,
                             count_grassmannian, good_prime,
                             good_prime_for_pairs, iter_submodules,
                             stratify_ext_classes)
from extsym.delta import enumerate_flag_types
from extsym.euler import interpolate_euler, select_primes
from extsym.ext import (beta_map, ext1_space, ext_dim, middle_term,
                        pushed_kernel_dim)
from extsym.fields import RATIONALS, FieldError
from extsym.instances import (a2_catalog, a2_sums, deformed_a2_module,
                              three_vertex_algebra, three_vertex_simples,
                              two_loop_modules)
from extsym.linalg import (Mat, Subspace, enumerate_subspaces, identity,
                           kernel_basis, mat_from_fractions, rref, transpose)
from extsym.modules import (Catalog, ModuleError, UndecidableError,
                            direct_sum, direct_sum_many, hom_basis, hom_dim,
                            hom_combination, is_isomorphic,
                            module_from_fractions, reduce_catalog,
                            reduce_module, simple_at_vertex, submodule,
                            zero_module)

from extsym.verify import _strata_chi, verify_formula1, verify_formula2

from oracle import (conjugate, count_efg_pairs, count_flags_bruteforce,
                    count_submodules_bruteforce, efg_degree_bound,
                    gaussian_binomial_int, mat_apply,
                    modules_isomorphic_bruteforce, span_set,
                    witness_from_rows)


def _arrow_data(m):
    q = m.algebra.quiver
    return [(q.vertex_index(a.source), q.vertex_index(a.target),
             [list(r) for r in mat.rows])
            for a, mat in zip(q.arrows, m.matrices)]


class TestGrassmannian:
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_bruteforce(self, a2, p):
        _, mods = a2
        probe = reduce_module(direct_sum(mods["P1"], mods["S1"]), p)
        for e in itertools.product(range(3), range(2)):
            got = count_grassmannian(probe, e)
            want = count_submodules_bruteforce(list(probe.dims),
                                               _arrow_data(probe), list(e), p)
            assert got == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_semisimple_gives_gaussian_binomials(self, a2, p):
        alg, mods = a2
        s = mods["S1"]
        triple = reduce_module(direct_sum(direct_sum(s, s), s), p)
        for k in range(4):
            assert count_grassmannian(triple, (k, 0)) == \
                gaussian_binomial_int(3, k, p)

    def test_out_of_range_is_zero(self, a2):
        _, mods = a2
        m = reduce_module(mods["P1"], 3)
        assert count_grassmannian(m, (2, 0)) == 0

    def test_requires_prime_field(self, a2):
        _, mods = a2
        with pytest.raises(CountError, match="prime field"):
            list(iter_submodules(mods["P1"], (1, 0)))

    @pytest.mark.parametrize("p", [2, 5])
    def test_invariant_under_base_change(self, a2, p):
        _, mods = a2
        m = reduce_module(direct_sum(mods["P1"], mods["S2"]), p)
        field = m.field
        g = (mat_from_fractions(field, [[1]]),
             mat_from_fractions(field, [[1, 1], [0, 1]]))
        twisted = conjugate(m, g)
        for e in itertools.product(range(2), range(3)):
            assert count_grassmannian(m, e) == count_grassmannian(twisted, e)


def _is_rref(rows, ncols):
    """Nonzero rows, leading entries 1 in increasing columns, each pivot
    column zero in the other rows."""
    pivots = []
    for r in rows:
        nz = [j for j, x in enumerate(r) if x]
        if len(r) != ncols or not nz or r[nz[0]] != 1:
            return False
        pivots.append(nz[0])
    return pivots == sorted(set(pivots)) and all(
        rows[i][pc] == 0 for k, pc in enumerate(pivots)
        for i in range(len(rows)) if i != k)


def _is_submodule(m, rows_by_vertex):
    p = m.field.p
    spaces = [span_set(rows, d, p) for rows, d in zip(rows_by_vertex, m.dims)]
    return all(mat_apply([list(r) for r in mat], v, p) in spaces[t]
               for s, t, mat in _arrow_data(m) for v in spaces[s])


def _walk_families(a2):
    """Rational modules of total dimension <= 4 from five families: direct
    sums over the doubled-arrow algebra, two-loop modules and their sums,
    the deformed (1, 1) family and its sums, three-vertex modules built
    from simples by nonzero extension classes and direct sums, and 0/1
    modules over the doubled-arrow quiver without relations."""
    alg, _ = a2
    yield from a2_sums(alg, 4).values()

    _, loops = two_loop_modules()
    small = list(loops.values())
    yield from small
    for x, y in itertools.combinations_with_replacement(small, 2):
        if x.total_dim + y.total_dim <= 4:
            yield direct_sum(x, y)

    deformed = [deformed_a2_module(Fraction(a)) for a in (1, 2, -1)]
    yield from deformed
    for x, y in itertools.combinations_with_replacement(deformed, 2):
        yield direct_sum(x, y)

    alg3 = three_vertex_algebra()
    simples = list(three_vertex_simples(alg3).values())

    def extended_by_simples(mods):
        out = []
        for x in mods:
            for y in simples:
                for a, b in ((x, y), (y, x)):
                    space = ext1_space(a, b)
                    for i in range(space.dim):
                        coords = [space.field.zero] * space.dim
                        coords[i] = space.field.one
                        out.append(middle_term(space, coords))
        return out

    length2 = extended_by_simples(simples)
    bricks = simples + length2 + extended_by_simples(length2)
    for r in range(1, 5):
        for combo in itertools.combinations_with_replacement(bricks, r):
            if sum(b.total_dim for b in combo) <= 4:
                yield direct_sum_many(alg3, RATIONALS, list(combo))

    # no relations: the path 1 -> 2 -> 1 need not vanish, so the images
    # fixed at vertex 2 can leave the preimage of the subspace at vertex 1
    cyc = AlgebraPresentation(make_quiver(("1", "2"), (("a", "1", "2"),
                                                       ("b", "2", "1"))),
                              (), label="cycle")
    for d1, d2 in ((1, 1), (2, 1), (1, 2)):
        for vals in itertools.product(range(2), repeat=2 * d1 * d2):
            a = [list(vals[i * d1:(i + 1) * d1]) for i in range(d2)]
            b = [list(vals[d1 * d2 + i * d2:d1 * d2 + (i + 1) * d2])
                 for i in range(d1)]
            yield module_from_fractions(cyc, RATIONALS, {"1": d1, "2": d2},
                                        {"a": a, "b": b})


class TestVertexWalk:
    """The vertex-by-vertex submodule walk against the brute-force count,
    on modules with arrows into earlier and later vertices and with
    loops, at every dimension vector."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_bruteforce(self, a2, p):
        slots = 0
        for m_rat in _walk_families(a2):
            try:
                m = reduce_module(m_rat, p)
            except FieldError:
                continue    # a denominator vanishes mod p
            for e in itertools.product(*[range(d + 1) for d in m.dims]):
                subs = list(iter_submodules(m, e))
                assert len(set(subs)) == len(subs)
                for rows_by_vertex in subs:
                    assert all(len(rows) == k and _is_rref(rows, d)
                               for rows, k, d in zip(rows_by_vertex, e,
                                                     m.dims))
                    assert _is_submodule(m, rows_by_vertex)
                want = count_submodules_bruteforce(
                    list(m.dims), _arrow_data(m), list(e), p)
                assert len(subs) == want, (m.key(), e)
                assert count_grassmannian(m, e) == want, (m.key(), e)
                slots += 1
        assert slots > 1000

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_semisimple_at_five_gives_gaussian_binomials(self, a2, k):
        alg, mods = a2
        m = reduce_module(direct_sum_many(alg, RATIONALS, [mods["S1"]] * k),
                          5)
        for e in range(k + 1):
            want = gaussian_binomial_int(k, e, 5)
            assert len(list(iter_submodules(m, (e, 0)))) == want
            assert count_grassmannian(m, (e, 0)) == want


class TestFlags:
    def test_p1_has_one_chain(self, a2):
        _, mods = a2
        p1 = reduce_module(mods["P1"], 3)
        simples = [reduce_module(mods["S1"], 3), reduce_module(mods["S2"], 3)]
        # the top quotient of P1 is S1, then S2 remains
        assert count_flags(p1, (0, 1), simples) == 1
        assert count_flags(p1, (1, 0), simples) == 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_bruteforce(self, a2, p):
        _, mods = a2
        simples = [reduce_module(mods["S1"], p), reduce_module(mods["S2"], p)]
        m = reduce_module(direct_sum(mods["P1"], mods["S1"]), p)
        for order in itertools.permutations([0, 0, 1]):
            got = count_flags(m, order, simples)
            factor_dims = [list(simples[j].dims) for j in order]
            want = count_flags_bruteforce(list(m.dims), _arrow_data(m),
                                          factor_dims, p)
            assert got == want

    def test_requires_prime_field(self, a2):
        _, mods = a2
        with pytest.raises(CountError,
                           match="^flag counting requires a prime field$"):
            count_flags(mods["P1"], (0, 1), [mods["S1"], mods["S2"]])

    def test_dims_must_be_exhausted(self, a2):
        _, mods = a2
        p1 = reduce_module(mods["P1"], 3)
        simples = [reduce_module(mods["S1"], 3), reduce_module(mods["S2"], 3)]
        with pytest.raises(CountError, match="drops"):
            count_flags(p1, (0,), simples)

    @pytest.mark.parametrize("jseq, bad", [((-2, -1), "-2, -1"),
                                           ((0, 5), "5")])
    def test_indices_out_of_range_rejected(self, a2, jseq, bad):
        _, mods = a2
        p1 = reduce_module(mods["P1"], 3)
        simples = [reduce_module(mods["S1"], 3), reduce_module(mods["S2"], 3)]
        with pytest.raises(CountError, match=f"2 simples: {bad}$"):
            count_flags(p1, jseq, simples)

    def test_zero_simple_refused(self, a2):
        # the chain S1 >= S1 >= 0 of type (Z, S1) exists, so a count of 0
        # would be wrong: the zero module is no simple factor
        alg, mods = a2
        s1 = reduce_module(mods["S1"], 3)
        zero = zero_module(alg, s1.field)
        with pytest.raises(CountError, match="^the list of simples holds a "
                                             "zero module at index 0$"):
            count_flags(s1, (0, 1), [zero, s1])

    def test_semisimple_square_counts(self, a2):
        _, mods = a2
        p = 3
        s = reduce_module(direct_sum(mods["S1"], mods["S1"]), p)
        simples = [reduce_module(mods["S1"], p), reduce_module(mods["S2"], p)]
        # full flags of a 2-dim space over GF(3): p + 1 lines
        assert count_flags(s, (0, 0), simples) == p + 1

    def test_simples_over_another_field_refused(self, a2):
        _, mods = a2
        p1 = reduce_module(mods["P1"], 3)
        simples = [reduce_module(mods["S1"], 3), reduce_module(mods["S2"], 5)]
        with pytest.raises(CountError,
                           match=r"^simple 1 is over GF\(5\), the module "
                                 r"over GF\(3\)$"):
            count_flags(p1, (0, 1), simples)

    def test_simples_of_another_algebra_refused(self, a2, two_loop):
        _, mods = a2
        _, loops = two_loop
        p1 = reduce_module(mods["P1"], 3)
        simples = [reduce_module(loops["S"], 3), reduce_module(mods["S2"], 3)]
        with pytest.raises(CountError,
                           match="^simple 0 is a module over another "
                                 "algebra than the module's$"):
            count_flags(p1, (0, 1), simples)

    @pytest.mark.parametrize("p", [2, 3])
    def test_quotient_onto_a_two_dimensional_vertex(self, two_loop, p):
        """A map into a factor of dimension 2 at a vertex must be onto
        there: with S+S as its own factor, rank-1 maps do not count and
        the only chain is M > 0."""
        _, mods = two_loop
        m = reduce_module(mods["S+S"], p)
        got = count_flags(m, (0,), [m])
        want = count_flags_bruteforce(list(m.dims), _arrow_data(m),
                                      [list(m.dims)], p)
        assert got == want == 1


class TestQuotientKernels:
    """Each flag step's (kernel, weight) pairs against the kernels built
    the long way: one per line of Hom(M, S), ``kernel_basis`` at every
    vertex and ``submodule`` on its echelon rows, deduplicated by those
    rows.  The split lines of a one-dimensional factor come as one kernel
    weighted by their number; every other kernel has weight 1 and equals
    the long way's kernel of its map under the base change that reads
    each echelon row at the free columns of the map."""

    @staticmethod
    def _long_way(m, simple):
        field = m.field
        basis = hom_basis(m, simple).basis
        out, seen = [], set()
        for line in enumerate_subspaces(len(basis), 1, field.p):
            phi = hom_combination(field, basis, line.mat.rows[0])
            witness = []
            for i, d in enumerate(m.dims):
                kb = kernel_basis(field, phi[i]) if simple.dims[i] \
                    else identity(field, d)
                if kb.nrows != d - simple.dims[i]:
                    break
                witness.append(Subspace(field, d, kb, tuple(
                    r.index(1) for r in kb.rows)))
            else:
                rows = tuple(w.mat.rows for w in witness)
                if rows not in seen:
                    seen.add(rows)
                    out.append((submodule(m, witness), rows, phi))
        return out

    @staticmethod
    def _in_free_columns(m, simple, ref, rows, phi):
        """The long way's kernel with each kernel row's coordinates read
        off the pivots of the map's echelon form."""
        g = []
        for i, kern in enumerate(rows):
            piv = rref(m.field, phi[i])[1] if simple.dims[i] else ()
            free = [c for c in range(m.dims[i]) if c not in piv]
            g.append(Mat(tuple(tuple(r[c] for r in kern) for c in free),
                         len(free), len(kern)))
        return conjugate(ref, g)

    @pytest.mark.parametrize("p", [2, 3])
    def test_equal_to_kernels_built_the_long_way(self, a2, two_loop, p):
        _, loops = two_loop
        factors = {}
        checked = weighted = 0
        for m_rat in itertools.chain(_walk_families(a2), [loops["S+S"]]):
            try:
                m = reduce_module(m_rat, p)
            except FieldError:
                continue
            alg = m.algebra
            if alg.key() not in factors:
                # the deformed algebra has no modules at one vertex
                try:
                    factors[alg.key()] = [simple_at_vertex(alg, m.field, v)
                                          for v in alg.quiver.vertices]
                except ModuleError:
                    factors[alg.key()] = []
                if alg.key() == loops["S"].algebra.key():
                    factors[alg.key()].append(reduce_module(loops["S+S"], p))
            for simple in factors[alg.key()]:
                got = list(counting._quotient_kernels(m, simple))
                want = self._long_way(m, simple)
                assert sum(w for _, w in got) == len(want)
                if simple.total_dim != 1:
                    assert all(w == 1 for _, w in got)
                # per isomorphism class: summed weight, long-way kernels
                classes = []
                for x, slot, n in itertools.chain(
                        ((k, 1, w) for k, w in got),
                        ((ref, 2, 1) for ref, _, _ in want)):
                    hit = next((c for c in classes if c[0].dims == x.dims
                                and is_isomorphic(c[0], x)[0]), None)
                    if hit is None:
                        hit = [x, 0, 0]
                        classes.append(hit)
                    hit[slot] += n
                assert all(c[1] == c[2] for c in classes)
                expected = collections.Counter(
                    self._in_free_columns(m, simple, *w) for w in want)
                for k, w in got:
                    if w == 1:
                        assert expected[k] > 0
                        expected[k] -= 1
                    else:
                        weighted += 1
                checked += len(want)
        assert checked > 500 and weighted > 50

    @pytest.mark.parametrize("p", [2, 3])
    def test_one_kernel_for_the_split_lines(self, a2, three_vertex, p):
        """(p^(h-k) - 1)/(p - 1) kernels of the unsplit lines plus one
        for the split ones, k the multiplicity of S in the label, and the
        weights sum to every line of Hom(M, S), each map to a simple
        being onto."""
        alg, _ = a2
        alg3, simples3 = three_vertex
        sums3 = {"+".join(combo): direct_sum_many(
                     alg3, RATIONALS, [simples3[x] for x in combo])
                 for r in range(1, 5)
                 for combo in itertools.combinations_with_replacement(
                     sorted(simples3), r)}
        split = 0
        for algebra, sums in ((alg, a2_sums(alg, 4)), (alg3, sums3)):
            field = reduce_module(next(iter(sums.values())), p).field
            factors = {f"S{v}": simple_at_vertex(algebra, field, v)
                       for v in algebra.quiver.vertices}
            for label, m_rat in sums.items():
                m = reduce_module(m_rat, p)
                for lab, simple in factors.items():
                    k = label.split("+").count(lab)
                    h = hom_dim(m, simple)
                    got = list(counting._quotient_kernels(m, simple))
                    assert len(got) == \
                        (p ** (h - k) - 1) // (p - 1) + (k > 0), \
                        (label, lab)
                    assert sum(w for _, w in got) == (p ** h - 1) // (p - 1)
                    split += k > 0
        assert split > 40

    @pytest.mark.parametrize("p", [2, 3, 19])
    def test_four_copies_of_a_simple_give_one_kernel(self, a2, p):
        alg, _ = a2
        m = reduce_module(a2_sums(alg, 4)["S1+S1+S1+S1"], p)
        got = list(counting._quotient_kernels(
            m, simple_at_vertex(alg, m.field, "1")))
        assert [w for _, w in got] == [(p ** 4 - 1) // (p - 1)]
        assert got[0][0].dims == (3, 0)


_ORACLE: dict = {}


def _flag_table(m_rat, simples_rat, p):
    """count_flags of the reduction mod p for every flag type."""
    m = reduce_module(m_rat, p)
    simples = [reduce_module(s, p) for s in simples_rat]
    return {jseq: count_flags(m, jseq, simples)
            for jseq in enumerate_flag_types(m.dims, simples)}


def _oracle_table(m_rat, simples_rat, p):
    """The same table from the brute-force oracle, memoised per test run."""
    key = (m_rat.algebra.key(), m_rat.key(), p)
    if key not in _ORACLE:
        m = reduce_module(m_rat, p)
        simples = [reduce_module(s, p) for s in simples_rat]
        _ORACLE[key] = {
            jseq: count_flags_bruteforce(
                list(m.dims), _arrow_data(m),
                [list(simples[j].dims) for j in jseq], p)
            for jseq in enumerate_flag_types(m.dims, simples)}
    return _ORACLE[key]


def _q_factorial(k, q):
    out = 1
    for i in range(1, k + 1):
        out *= (q ** i - 1) // (q - 1)
    return out


def _shared_invariant_pair(alg):
    """Two commuting nilpotent pairs on a 3-space with equal arrow ranks
    (1, 1) that are not isomorphic: x = y = E12 has 2q + 1 complete flags,
    x = E12, y = E13 has q + 1."""
    e12 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    e13 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    equal = module_from_fractions(alg, RATIONALS, {"v": 3},
                                  {"x": e12, "y": e12})
    apart = module_from_fractions(alg, RATIONALS, {"v": 3},
                                  {"x": e12, "y": e13})
    return equal, apart


@pytest.fixture
def cold_classes():
    """Empty class tables before and after the test, so that it classifies
    every module itself and leaves nothing it forced behind."""
    memo.clear_all()
    yield
    memo.clear_all()


class TestFlagsByClass:
    """The recursion over isomorphism classes against the brute-force
    chain count, for every flag type."""

    @pytest.mark.parametrize("p, max_total", [(2, 4), (3, 3)])
    def test_a2_sums(self, a2, p, max_total):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        for m in a2_sums(alg, max_total).values():
            assert _flag_table(m, simples, p) == \
                _oracle_table(m, simples, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_two_loop(self, two_loop, p):
        _, mods = two_loop
        simples = [mods["S"]]
        for m in mods.values():
            assert _flag_table(m, simples, p) == \
                _oracle_table(m, simples, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_three_vertex(self, three_vertex, p):
        """Vertex 2 has two arrows in and one out: direct sums of the
        simples and of the middle terms of extensions between them."""
        alg, simple_mods = three_vertex
        simples = list(simple_mods.values())
        bricks = list(simples)
        for x, y in itertools.product(simples, repeat=2):
            space = ext1_space(x, y)
            for i in range(space.dim):
                coords = [space.field.zero] * space.dim
                coords[i] = space.field.one
                bricks.append(middle_term(space, coords))
        assert len(bricks) > len(simples)
        sums = [direct_sum_many(alg, RATIONALS, list(combo))
                for r in range(1, 5)
                for combo in itertools.combinations_with_replacement(bricks, r)
                if sum(b.total_dim for b in combo) <= 4]
        assert any(m.dims[1] >= 2 for m in sums)
        for m in sums:
            assert _flag_table(m, simples, p) == \
                _oracle_table(m, simples, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equal_invariants_different_classes(self, two_loop, p):
        alg, mods = two_loop
        equal, apart = _shared_invariant_pair(alg)
        simples = [mods["S"]]
        assert _flag_table(equal, simples, p) == {(0, 0, 0): 2 * p + 1}
        assert _flag_table(apart, simples, p) == {(0, 0, 0): p + 1}
        if p < 5:
            assert _flag_table(equal, simples, p) == \
                _oracle_table(equal, simples, p)
            assert _flag_table(apart, simples, p) == \
                _oracle_table(apart, simples, p)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_semisimple_gives_q_factorials(self, a2, k):
        alg, mods = a2
        p = 5
        m = reduce_module(direct_sum_many(alg, RATIONALS, [mods["S1"]] * k),
                          p)
        simples = [reduce_module(mods["S1"], p), reduce_module(mods["S2"], p)]
        # complete flags of F_5^k
        assert count_flags(m, (0,) * k, simples) == \
            _q_factorial(k, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_invariant_under_base_change(self, a2, p):
        _, mods = a2
        m = reduce_module(direct_sum(direct_sum(mods["P1"], mods["S2"]),
                                     mods["S1"]), p)
        simples = [reduce_module(mods["S1"], p), reduce_module(mods["S2"], p)]
        field = m.field
        g = (mat_from_fractions(field, [[1, 1], [0, 1]]),
             mat_from_fractions(field, [[1, 1], [1, 0]]))
        twisted = conjugate(m, g)
        assert twisted.key() != m.key()
        for jseq in enumerate_flag_types(m.dims, simples):
            assert count_flags(twisted, jseq, simples) == \
                count_flags(m, jseq, simples)

    def test_undecidable_comparisons_fall_back_to_presentations(
            self, a2, two_loop, monkeypatch, cold_classes):
        calls = []

        def undecidable(m, n):
            calls.append(m)
            raise UndecidableError("forced")

        monkeypatch.setattr(counting, "is_isomorphic", undecidable)
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        for lab in ("S1+S1+S2", "S1+P1", "S1+S2+P1", "S1+S1+P2"):
            m = a2_sums(alg, 4)[lab]
            assert _flag_table(m, simples, 3) == \
                _oracle_table(m, simples, 3)
        loop_alg, loops = two_loop
        for m in loops.values():
            assert _flag_table(m, [loops["S"]], 3) == \
                _oracle_table(m, [loops["S"]], 3)
        # same bucket, not isomorphic: an undecided comparison must not
        # merge them
        for p in (2, 3):
            equal, apart = _shared_invariant_pair(loop_alg)
            assert _flag_table(apart, [loops["S"]], p) == {(0, 0, 0): p + 1}
            assert _flag_table(equal, [loops["S"]], p) == \
                {(0, 0, 0): 2 * p + 1}
        assert calls

    def test_conjugate_reads_the_cached_count(self, a2, monkeypatch,
                                              cold_classes):
        """Counts are cached by class, flag type and simples: the same type
        of a conjugate presentation builds no children, and another list
        of simples counts again."""
        calls = []
        children = counting._class_children_of

        def counted(*args):
            calls.append(args)
            return children(*args)

        monkeypatch.setattr(counting, "_class_children_of", counted)
        _, mods = a2
        m = reduce_module(direct_sum(mods["P1"], mods["S1"]), 3)
        simples = [reduce_module(mods["S1"], 3), reduce_module(mods["S2"], 3)]
        field = m.field
        twisted = conjugate(m, (mat_from_fractions(field, [[1, 1], [1, 2]]),
                                mat_from_fractions(field, [[2]])))
        assert twisted.key() != m.key()
        first = count_flags(m, (0, 0, 1), simples)
        assert first > 0 and calls
        calls.clear()
        assert count_flags(twisted, (0, 0, 1), simples) == first
        assert calls == []
        assert count_flags(twisted, (0, 0, 1), simples + simples) == first
        assert calls

    @pytest.mark.parametrize("limit", [1, 2, 5])
    def test_counts_survive_clearing_at_a_small_bound(
            self, a2, two_loop, monkeypatch, cold_classes, limit):
        monkeypatch.setattr(memo, "LIMIT", limit)
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        for lab in ("S1+S1+S2", "S1+S2+P2", "S2+S2+P1", "P1+P2"):
            m = a2_sums(alg, 4)[lab]
            assert _flag_table(m, simples, 2) == \
                _oracle_table(m, simples, 2)
        _, loops = two_loop
        for m in loops.values():
            assert _flag_table(m, [loops["S"]], 5) == \
                _oracle_table(m, [loops["S"]], 5)


class TestStrata:
    @pytest.mark.parametrize("p", [3, 5])
    def test_base_pair(self, a2, p):
        alg, mods = a2
        cat = {lab: reduce_module(c, p)
               for lab, c in a2_catalog(alg, 2).items()}
        m = reduce_module(mods["S1"], p)
        n = reduce_module(mods["S2"], p)
        counts = stratify_ext_classes(m, n, cat)
        # every nonzero class has the nonsplit middle term
        nonzero = {lab: c for lab, c in counts.items() if c}
        assert nonzero == {"P1": 1}
        assert counts["S1+S2"] == 0

    def test_totals_checked_against_line_count(self, a2, two_loop):
        _, mods = two_loop
        p = 3
        s = reduce_module(mods["S"], p)
        # Ext^1(S, S) is 2-dimensional: p + 1 lines split among the strata
        cat = {lab: reduce_module(c, p) for lab, c in mods.items()
               if c.total_dim <= 2}
        counts = stratify_ext_classes(s, s, cat)
        assert sum(counts.values()) == p + 1

    def test_requires_prime_field(self, a2):
        alg, mods = a2
        with pytest.raises(CountError, match="^stratification of "
                           "extension classes requires a prime field$"):
            stratify_ext_classes(mods["S1"], mods["S2"], a2_catalog(alg, 2))

    def test_incomplete_catalog_reported(self, a2):
        alg, mods = a2
        p = 3
        m = reduce_module(mods["S1"], p)
        n = reduce_module(mods["S2"], p)
        cat = {"S1+S2": reduce_module(direct_sum(mods["S2"], mods["S1"]), p)}
        with pytest.raises(CountError, match="incomplete"):
            stratify_ext_classes(m, n, cat)

    def test_entries_over_another_field_refused(self, a2):
        alg, mods = a2
        m = reduce_module(mods["S1"], 3)
        n = reduce_module(mods["S2"], 3)
        cat = {**reduce_catalog(a2_catalog(alg, 2), 3),
               "P1 mod 5": reduce_module(mods["P1"], 5)}
        with pytest.raises(CountError,
                           match=r"^catalog entry P1 mod 5 is over GF\(5\), "
                                 r"the extension over GF\(3\)$"):
            stratify_ext_classes(m, n, cat)

    def test_entries_of_another_algebra_refused(self, a2, two_loop):
        alg, mods = a2
        _, loops = two_loop
        m = reduce_module(mods["S1"], 3)
        n = reduce_module(mods["S2"], 3)
        cat = {"S": reduce_module(loops["S"], 3),
               **reduce_catalog(a2_catalog(alg, 2), 3)}
        with pytest.raises(CountError,
                           match="^catalog entry S is a module over another "
                                 "algebra than the extension's$"):
            stratify_ext_classes(m, n, cat)


class TestStrataAgainstBruteForce:
    """Per-prime strata against an exhaustive classification of every
    line: its middle term belongs to the first entry, in catalog order,
    that an exhaustive search finds isomorphic to it.  The entries are
    conjugated, so that the lines are classified by isomorphism tests
    rather than by presentation."""

    @staticmethod
    def _conjugated(cat, p):
        def flip(field, d):
            # the order of the basis reversed, and -1 in dimension 1
            if d == 1:
                return mat_from_fractions(field, [[p - 1]])
            return mat_from_fractions(field, [[int(i + j == d - 1)
                                               for j in range(d)]
                                              for i in range(d)], ncols=d)
        out = {lab: conjugate(c, [flip(c.field, d) for d in c.dims])
               for lab, c in reduce_catalog(cat, p).items()}
        return Catalog(out, cat.indecomposables) \
            if isinstance(cat, Catalog) else out

    @staticmethod
    def _bruteforce(m, n, cat, p):
        """(counts per entry, number of lines whose middle term is
        presented exactly as an entry)."""
        space = ext1_space(m, n)
        lines = [v for v in itertools.product(range(p), repeat=space.dim)
                 if any(v) and next(x for x in v if x) == 1]
        dims = tuple(a + b for a, b in zip(m.dims, n.dims))
        counts = {lab: 0 for lab, c in cat.items() if c.dims == dims}
        keys = {c.key() for c in cat.values()}
        as_entries = 0
        for line in lines:
            mid = middle_term(space, line)
            as_entries += mid.key() in keys
            counts[next(lab for lab in counts if modules_isomorphic_bruteforce(
                list(dims), _arrow_data(mid), _arrow_data(cat[lab]), p))] += 1
        return counts, as_entries

    @pytest.mark.parametrize("kind", ["named", "plain"])
    @pytest.mark.parametrize("p, totals, pairs, lines, as_entries", [
        # over GF(2) the presentations of some middle terms form a single
        # orbit of the base changes, so no conjugation avoids them all
        (2, (3, 4), 35, 113, 23), (3, (3,), 8, 20, 0)], ids=["2", "3"])
    def test_a2_pairs(self, a2, kind, p, totals, pairs, lines, as_entries):
        """Every pair of the given combined dimensions with Ext^1(M, N)
        nonzero."""
        alg, _ = a2
        sums = a2_sums(alg, 3)
        cat = a2_catalog(alg, 4)
        cat = self._conjugated(cat if kind == "named" else dict(cat), p)
        seen = [0, 0, 0]
        for a, b in itertools.product(sums, repeat=2):
            m, n = sums[a], sums[b]
            if m.total_dim + n.total_dim not in totals or not ext_dim(m, n):
                continue
            mp, np_ = reduce_module(m, p), reduce_module(n, p)
            want, keyed = self._bruteforce(mp, np_, cat, p)
            got = stratify_ext_classes(mp, np_, cat)
            assert got == want, (a, b)
            seen = [seen[0] + 1, seen[1] + sum(got.values()), seen[2] + keyed]
        assert seen == [pairs, lines, as_entries]

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("kind", ["named", "plain"])
    def test_two_loop_simple_pair(self, two_loop, p, kind):
        _, loops = two_loop
        cat = Catalog(loops, tuple(lab for lab in loops if lab != "S+S"))
        cat = self._conjugated(cat if kind == "named" else dict(cat), p)
        s = reduce_module(loops["S"], p)
        want, keyed = self._bruteforce(s, s, cat, p)
        assert keyed == 0
        # each of the p + 1 lines is a class of its own
        assert sorted(want.values()) == [0] * (len(want) - p - 1) + \
            [1] * (p + 1)
        assert stratify_ext_classes(s, s, cat) == want


class TestHomRankStrata:
    """Strata under catalogs that name their indecomposables, read by
    localisation onto pairs of named modules: each middle term is matched
    to the catalog entry with the same named summands
    (``named_summands``), against the strata of the whole space that a
    plain catalog counts line by line."""

    def test_localised_strata_equal_counted_ones(self, a2):
        """Every pair of combined dimension <= 4, every pair of combined
        dimension vector (3, 2) or (2, 3) with dim Ext^1(M, N) <= 3, and
        (S2+P1, S1+P2), in both directions."""
        alg, _ = a2
        sums = a2_sums(alg, 4)
        cat = a2_catalog(alg, 6)
        small = [(a, b) for a in sums for b in sums
                 if sums[a].total_dim + sums[b].total_dim <= 4
                 and sums[a].total_dim <= 3 and sums[b].total_dim <= 3]
        five = [(a, b) for a in sums for b in sums
                if tuple(x + y for x, y in zip(sums[a].dims, sums[b].dims))
                in ((3, 2), (2, 3)) and ext_dim(sums[a], sums[b]) <= 3]
        assert (len(small), len(five)) == (81, 80)
        pairs = small + five + [("S2+P1", "S1+P2")]
        ordered = {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}
        reached = 0
        for a, b in sorted(ordered):
            m, n = sums[a], sums[b]
            got = _strata_chi(m, n, cat, None, "forward")
            assert got == _strata_chi(m, n, dict(cat), None,
                                      "forward"), (a, b)
            reached += any(got.values())
        assert (len(ordered), reached) == (163, 83)

    def test_unnamed_catalogs_search_for_isomorphisms(self, a2, two_loop,
                                                      monkeypatch):
        """One stratification for every catalog: a named one is classified
        line by line like its plain copy, each entry of the middle term's
        dimension vector and each line once."""
        alg, mods = a2
        calls = []
        classify = counting._module_class

        def counted(x):
            calls.append(x.key())
            return classify(x)

        monkeypatch.setattr(counting, "_module_class", counted)
        p = 3
        m, n = reduce_module(mods["S1"], p), reduce_module(mods["S2"], p)
        named = reduce_catalog(a2_catalog(alg, 2), p)
        entries = [c.key() for c in named.values() if c.dims == (1, 1)]
        assert len(entries) == 3
        assert stratify_ext_classes(m, n, named)["P1"] == 1
        assert calls[:3] == entries and len(calls) == 4
        calls.clear()
        assert stratify_ext_classes(m, n, dict(named))["P1"] == 1
        assert calls[:3] == entries and len(calls) == 4
        calls.clear()
        _, loops = two_loop
        s = reduce_module(loops["S"], p)
        cat = {lab: reduce_module(c, p) for lab, c in loops.items()}
        assert sum(stratify_ext_classes(s, s, cat).values()) == p + 1
        assert len(calls) == sum(c.dims == (2,) for c in cat.values()) \
            + p + 1

    @pytest.mark.parametrize("names", [
        sub for r in range(1, 4)
        for sub in itertools.combinations(("S1", "S2", "P1", "P2"), r)])
    def test_proper_namings_refused(self, a2, a2_cat, names):
        _, mods = a2
        cat = Catalog(a2_cat, names)
        for verify in (verify_formula2, verify_formula1):
            with pytest.raises(CountError, match="does not name all of its "
                               "indecomposables"):
                verify(mods["S1"], mods["S2"], [mods["S1"], mods["S2"]],
                       cat)

    def test_isomorphic_entries_refused(self, a2):
        alg, mods = a2
        cat = a2_catalog(alg, 2)
        twin = Catalog({**cat, "S2+S1": direct_sum(mods["S2"], mods["S1"])},
                       cat.indecomposables)
        for verify in (verify_formula2, verify_formula1):
            with pytest.raises(CountError, match="entries S1\\+S2 and "
                               "S2\\+S1 are both the direct sum S1\\+S2"):
                verify(mods["S1"], mods["S2"], [mods["S1"], mods["S2"]],
                       twin)

    def test_plain_catalog_without_middle_terms_refused(self, a2):
        """A plain catalog with no entry of the middle terms' dimension
        vector leaves every line of Ext^1(S1, S2) unmatched."""
        _, mods = a2
        cat = {lab: mods[lab] for lab in ("S1", "S2")}
        for verify in (verify_formula2, verify_formula1):
            with pytest.raises(CountError, match=r"^catalog incomplete: no "
                               r"entry matches a middle term with dimension "
                               r"vector \(1, 1\)"):
                verify(mods["S1"], mods["S2"], [mods["S1"], mods["S2"]],
                       cat)

    def test_first_line_of_a_stratum_confirmed(self, a2, monkeypatch):
        """A line whose middle term is presented otherwise than its entry
        is matched by isomorphism, the first of each stratum included,
        even when every decomposition is already confirmed: the
        decompositions are memoised, the block tables are recounted at
        other primes, and a refused isomorphism leaves the catalog
        incomplete."""
        alg, mods = a2
        cat = a2_catalog(alg, 2)
        # P1 with its arrow doubled: isomorphic to P1 away from 2
        cat = Catalog({**cat, "P1": module_from_fractions(
            alg, RATIONALS, {"1": 1, "2": 1}, {"a": [[2]], "a*": [[0]]})},
            cat.indecomposables)
        args = (mods["S1"], mods["S2"], [mods["S1"], mods["S2"]], cat)
        memo.clear_all()
        assert verify_formula2(*args).strata["P1"]["forward"] == 1
        monkeypatch.setattr(counting, "is_isomorphic",
                            lambda x, y: (False, None))
        with pytest.raises(CountError, match="catalog incomplete"):
            verify_formula2(*args, primes=[7, 11])

    def test_middle_term_presented_as_an_entry_matches_by_key(
            self, a2, monkeypatch):
        """The extension S1 -> P1 -> S2 is presented exactly as the entry
        P1, so its line is matched without an isomorphism test."""
        alg, mods = a2
        p = 3
        m, n = reduce_module(mods["S1"], p), reduce_module(mods["S2"], p)
        cat = reduce_catalog(a2_catalog(alg, 2), p)
        memo.clear_all()

        def refused(x, y):
            raise AssertionError("isomorphism test called")

        monkeypatch.setattr(counting, "is_isomorphic", refused)
        assert stratify_ext_classes(m, n, cat)["P1"] == 1
        space = ext1_space(m, n)
        assert middle_term(space, (1,)).key() == cat["P1"].key()

    def test_unconfirmed_decomposition_refused(self, a2, monkeypatch):
        # P1+S1 is not presented as the direct sum S1+P1 of its named
        # summands, so only an isomorphism can confirm its decomposition
        alg, mods = a2
        memo.clear_all()
        monkeypatch.setattr(counting, "is_isomorphic",
                            lambda x, y: (False, None))
        for verify in (verify_formula2, verify_formula1):
            with pytest.raises(CountError, match="not confirmed isomorphic"):
                verify(direct_sum(mods["P1"], mods["S1"]), mods["S2"],
                       [mods["S1"], mods["S2"]], a2_catalog(alg, 4))

    def test_incomplete_catalog_reported(self, a2):
        alg, mods = a2
        cat = a2_catalog(alg, 2)
        short = Catalog({lab: c for lab, c in cat.items() if lab != "P1"},
                        ("S1", "S2", "P2"))
        for verify in (verify_formula2, verify_formula1):
            with pytest.raises(CountError, match="incomplete"):
                verify(mods["S1"], mods["S2"], [mods["S1"], mods["S2"]],
                       short)


def _submodules_with_incl(x):
    """Every submodule of x as (echelon rows, submodule, inclusion)."""
    out = []
    for e in itertools.product(*[range(d + 1) for d in x.dims]):
        for rows in iter_submodules(x, e):
            wit = witness_from_rows(x, rows)
            out.append((rows, submodule(x, wit),
                        tuple(transpose(u.mat) for u in wit)))
    return out


def _block_sum(total, parts, rows_per_part):
    """The block sum of one submodule of each part of ``total``, given by
    their echelon rows, as (submodule, inclusion)."""
    rows = [[] for _ in total.dims]
    offsets = [0] * len(total.dims)
    for x, part_rows in zip(parts, rows_per_part):
        for v, vrows in enumerate(part_rows):
            rows[v] += [(0,) * offsets[v] + r
                        + (0,) * (total.dims[v] - offsets[v] - x.dims[v])
                        for r in vrows]
            offsets[v] += x.dims[v]
    wit = witness_from_rows(total, rows)
    return submodule(total, wit), tuple(transpose(u.mat) for u in wit)


def _w(field, n, m, n1, n1_incl, m1, m1_incl):
    return pushed_kernel_dim(field, *beta_map(n, m, n1, n1_incl, m1, m1_incl))


class TestCorrectionCount:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_base_pair_values(self, a2, p):
        _, mods = a2
        m = reduce_module(mods["S1"], p)
        n = reduce_module(mods["S2"], p)
        assert count_efg([n], [m]) == {(0, 0): 0, (1, 0): 1, (0, 1): 0,
                                       (1, 1): 0}

    def test_requires_prime_field(self, a2):
        _, mods = a2
        with pytest.raises(CountError,
                           match="^correction counting requires a prime"):
            count_efg([mods["S2"]], [mods["S1"]])

    def test_empty_side_is_the_zero_module(self, a2):
        _, mods = a2
        p1 = reduce_module(mods["P1"], 3)
        zeros = {e: 0 for e in itertools.product(range(2), range(2))}
        assert count_efg([], [p1]) == zeros
        assert count_efg([p1], []) == zeros

    def test_no_parts_refused(self):
        with pytest.raises(CountError, match="^correction counting needs at "
                                             "least one part$"):
            count_efg([], [])

    def test_part_over_another_field_refused(self, a2):
        _, mods = a2
        s1, s2 = reduce_module(mods["S1"], 2), reduce_module(mods["S2"], 3)
        with pytest.raises(CountError,
                           match=r"^part 0 of M is over GF\(3\), the first "
                                 r"part over GF\(2\)$"):
            count_efg([s1], [s2])
        with pytest.raises(CountError, match="^part 1 of N is over GF"):
            count_efg([s2, s1], [s2])

    def test_part_over_another_algebra_refused(self, a2, three_vertex):
        _, mods = a2
        _, simples = three_vertex
        s1 = reduce_module(mods["S1"], 2)
        with pytest.raises(CountError,
                           match="^part 1 of M is a module over another "
                                 "algebra than the first part's$"):
            count_efg([s1], [s1, reduce_module(simples["S1"], 2)])

    def test_part_tables_built_once(self, a2, monkeypatch):
        """A second call with the same parts, in another order, reads the
        submodules of each part and the w_ij of each pair of parts from
        memo: no submodule walk, no paired map, the same table."""
        _, mods = a2
        n_parts = [reduce_module(mods[x], 3) for x in ("S1", "P1")]
        m_parts = [reduce_module(mods[x], 3) for x in ("S2", "P2", "S2")]
        memo.clear_all()
        want = count_efg(n_parts, m_parts)
        calls = []

        def spy(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        for name in ("iter_submodules", "beta_map"):
            monkeypatch.setattr(counting, name, spy(getattr(counting, name)))
        assert count_efg(n_parts, m_parts) == want
        assert count_efg(n_parts[::-1], m_parts[::-1]) == want
        assert calls == []
        memo.clear_all()
        assert count_efg(n_parts, m_parts) == want
        assert {"iter_submodules", "beta_map"} <= set(calls)

    @pytest.mark.parametrize("p", [2, 3])
    def test_paired_map_splits_over_pairs_of_parts(self, a2, three_vertex,
                                                    p):
        """On every block sum pair (N1 <= N, M1 <= M) of submodules of the
        parts, the w of one paired map on the whole direct sums equals the
        sum of the w of the maps on the pairs (N_i, M_j) of parts; and the
        table of ``count_efg`` is the sum of [w]_q over those pairs."""
        _, mods = a2
        _, simples = three_vertex
        for n_labels, m_labels, named in (
                (["S1", "S1", "P1"], ["S2", "P2"], mods),
                (["S1", "S2", "S3"], ["S2", "S3", "S2"], simples)):
            n_parts = [reduce_module(named[x], p) for x in n_labels]
            m_parts = [reduce_module(named[x], p) for x in m_labels]
            field = n_parts[0].field
            total = [functools.reduce(direct_sum, ps)
                     for ps in (n_parts, m_parts)]
            subs = [[_submodules_with_incl(x) for x in ps]
                    for ps in (n_parts, m_parts)]
            table = {e: 0 for e in itertools.product(
                *[range(a + b + 1) for a, b in zip(*(t.dims for t in total))])}
            nonzero = 0
            for n_choice in itertools.product(*subs[0]):
                for m_choice in itertools.product(*subs[1]):
                    whole = [_block_sum(t, ps, [rows for rows, _, _ in c])
                             for t, ps, c in zip(total, (n_parts, m_parts),
                                                 (n_choice, m_choice))]
                    w = _w(field, total[0], total[1], *whole[0], *whole[1])
                    assert w == sum(
                        _w(field, x, y, n1, n1_incl, m1, m1_incl)
                        for x, (_, n1, n1_incl) in zip(n_parts, n_choice)
                        for y, (_, m1, m1_incl) in zip(m_parts, m_choice)), \
                        (n_labels, m_labels)
                    e = tuple(a + b for a, b in zip(whole[0][0].dims,
                                                    whole[1][0].dims))
                    table[e] += (p ** w - 1) // (p - 1)
                    nonzero += w > 0
            assert nonzero, (n_labels, m_labels)
            assert count_efg(n_parts, m_parts) == table, (n_labels, m_labels)

    @pytest.mark.parametrize("p", [2, 3])
    def test_table_vanishes_at_both_ends(self, a2, p):
        # at e = 0, M1 = 0 and Ext^1(N, M1) = 0; at the top, M1 = M and
        # N1 = N, so the pullback is the identity and push(ker pull) is
        # zero; both with M and N whole and split into their named
        # summands
        alg, _ = a2
        sums = a2_sums(alg, 2)
        cat = a2_catalog(alg, 2)
        tried = 0
        for (la, m), (lb, n) in itertools.product(sums.items(), repeat=2):
            if not ext_dim(n, m):
                continue
            top = tuple(a + b for a, b in zip(m.dims, n.dims))
            for n_parts, m_parts in (([n], [m]), (
                    [cat[x] for x in lb.split("+")],
                    [cat[x] for x in la.split("+")])):
                table = count_efg([reduce_module(x, p) for x in n_parts],
                                  [reduce_module(x, p) for x in m_parts])
                assert len(table) == (top[0] + 1) * (top[1] + 1), (la, lb)
                assert table[(0, 0)] == table[top] == 0, (la, lb)
                assert any(table.values()), (la, lb)
            tried += 1
        assert tried

    def test_tables_equal_the_oracle(self, a2):
        """The efg table of f1, under the named catalog (block pairs of the
        named summands) and under its plain copy (every pair, unweighted
        by the affine fibres), equals the oracle's table fitted from every
        submodule pair with its q^h weights.  The pairs: those of
        combined dimension <= 4, the two benchmark pairs of dimension 5
        and one mirror, and (S2+P1, S1+P2); 40 of them have
        Ext^1(N, M) != 0."""
        alg, _ = a2
        sums = a2_sums(alg, 4)
        cat = a2_catalog(alg, 6)
        small = [(a, b) for a in sums for b in sums
                 if sums[a].total_dim + sums[b].total_dim <= 4
                 and sums[a].total_dim <= 3 and sums[b].total_dim <= 3]
        pairs = [(a, b) for a, b in small + [
            ("P1", "S2+P2"), ("S1+S2+P1", "S1"), ("S1", "S1+S2+P1"),
            ("S2+P1", "S1+P2")] if ext_dim(sums[b], sums[a])]
        assert len(pairs) == 40
        simples = [cat["S1"], cat["S2"]]
        for a, b in pairs:
            m, n = sums[a], sums[b]
            bound = efg_degree_bound(m.dims, n.dims, ext_dim(n, m))
            ps = select_primes(m, n, [], bound + 2, None)
            tables = [count_efg_pairs(reduce_module(n, p),
                                      reduce_module(m, p)) for p in ps]
            want = {str(e): interpolate_euler(
                        f"{a}, {b} at {e}",
                        [(p, t[e]) for p, t in zip(ps, tables)],
                        bound).value for e in tables[0]}
            for c in (cat, dict(cat)):
                assert verify_formula1(m, n, simples, c).efg == want, (a, b)


class TestPrimeScreening:
    def test_good_primes_for_base_pair(self, a2):
        _, mods = a2
        for p in (2, 3, 5, 7):
            assert good_prime(mods["S1"], mods["S2"], p)

    def test_bad_prime_rejected(self, a2):
        alg, mods = a2
        from fractions import Fraction
        from extsym.modules import module_from_fractions
        from extsym.fields import RATIONALS
        # a = 1/3 is a unit scaling of P1 over Q but has no reduction mod 3
        frac = module_from_fractions(alg, RATIONALS, {"1": 1, "2": 1},
                                     {"a": [[Fraction(1, 3)]], "a*": [[0]]})
        assert not good_prime_for_pairs([(frac, frac)], 3)
        assert good_prime_for_pairs([(frac, frac)], 5)


PRIMES_BELOW_60 = [p for p in range(2, 60)
                   if all(p % d for d in range(2, p))]


class TestCertificateScreen:
    """A prime that divides no certificate is accepted without reducing
    anything.  With every certificate set to 0 each prime is reduced and
    compared instead, and the screen must give the same answers."""

    @staticmethod
    def families(a2, two_loop, three_vertex):
        alg, mods = a2

        def p1(a):
            return module_from_fractions(alg, RATIONALS, {"1": 1, "2": 1},
                                         {"a": [[a]], "a*": [[0]]})

        x12 = module_from_fractions(alg, RATIONALS, {"1": 1, "2": 2},
                                    {"a": [[3], [1]], "a*": [[0, 0]]})
        return [list(a2_catalog(alg, 3).values()),
                [p1(3), p1(Fraction(1, 5))] + list(mods.values()),
                [x12, mods["S1"]],
                list(two_loop[1].values()),
                [deformed_a2_module(Fraction(k))
                 for k in (1, 2, 3, Fraction(1, 2))],
                list(three_vertex[1].values())]

    @staticmethod
    def screen(families):
        return [[good_prime_for_pairs([pair], p)
                 for pair in itertools.product(mods, repeat=2)]
                for mods in families for p in PRIMES_BELOW_60]

    def test_agrees_with_reduction_at_every_prime(self, a2, two_loop,
                                                   three_vertex,
                                                   monkeypatch):
        families = self.families(a2, two_loop, three_vertex)
        screened = self.screen(families)
        monkeypatch.setattr(counting, "prime_certificate", lambda a, b: 0)
        assert self.screen(families) == screened

    def test_bad_primes_divide_certificates(self, a2, two_loop,
                                            three_vertex):
        _, variants, (x12, s1), *_ = self.families(a2, two_loop,
                                                   three_vertex)
        p1_3, p1_fifth = variants[:2]
        assert not good_prime_for_pairs([(p1_3, p1_3)], 3)
        assert not good_prime_for_pairs([(p1_fifth, p1_fifth)], 5)
        # a prime that changes a dimension must divide the certificate
        assert counting.prime_certificate(p1_3, p1_3) % 3 == 0
        assert counting.prime_certificate(p1_fifth, p1_fifth) % 5 == 0
        # a = (3, 1) keeps rank 1 mod 3, so 3 is good for this pair
        assert good_prime(x12, s1, 3)
