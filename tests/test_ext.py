"""First extension spaces: dimensions, middle terms, class transport,
the paired transport beta and the dimension lemma of the block maps."""

import itertools
from fractions import Fraction

import pytest

from extsym import memo
from extsym.algebra import validate_presentation
from extsym.counting import iter_submodules
from extsym.ext import (ExtError, beta_map, ext1_space, ext_dim,
                        ext_symmetry_audit, middle_term, pushed_kernel_dim,
                        transport_matrix)
from extsym.fields import GF, RATIONALS, FieldError
from extsym.instances import a2_sums, deformed_a2_module
from extsym.linalg import Mat, identity, mat_vec, rank, span
from extsym.modules import (direct_sum, hom_basis, hom_dim, is_isomorphic,
                            module_from_fractions, reduce_module,
                            sub_quotient)

from oracle import (all_vectors, count_extension_tuples,
                    extension_tuple_satisfies, flag_lemma_dims, lemma_dims,
                    mat_apply, witness_from_rows)


class TestDimensions:
    def test_a2_matrix(self, a2):
        _, mods = a2
        order = ["S1", "S2", "P1", "P2"]
        want = {("S1", "S2"): 1, ("S2", "S1"): 1}
        for la, lb in itertools.product(order, repeat=2):
            assert ext_dim(mods[la], mods[lb]) == want.get((la, lb), 0)

    def test_three_vertex(self, three_vertex):
        _, s = three_vertex
        assert ext_dim(s["S1"], s["S2"]) == 1
        assert ext_dim(s["S2"], s["S1"]) == 0
        assert ext_dim(s["S2"], s["S3"]) == 1
        assert ext_dim(s["S3"], s["S2"]) == 1

    def test_two_loop_self_extensions(self, two_loop):
        _, mods = two_loop
        assert ext_dim(mods["S"], mods["S"]) == 2

    def test_additive_in_both_arguments(self, a2):
        _, mods = a2
        s12 = direct_sum(mods["S1"], mods["S2"])
        for probe in mods.values():
            assert ext_dim(s12, probe) == \
                ext_dim(mods["S1"], probe) + ext_dim(mods["S2"], probe)
            assert ext_dim(probe, s12) == \
                ext_dim(probe, mods["S1"]) + ext_dim(probe, mods["S2"])

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_dims_stable_under_reduction(self, a2, p):
        _, mods = a2
        for la, lb in itertools.product(mods, repeat=2):
            assert ext_dim(reduce_module(mods[la], p),
                           reduce_module(mods[lb], p)) == \
                ext_dim(mods[la], mods[lb])

    def test_trivial_part_by_rank_nullity(self, a2, two_loop,
                                          three_vertex):
        """The trivial tuples are the image of the Hom-tuple map, whose
        kernel is Hom(X, Y): rank = sum_i x_i y_i - hom(X, Y), and Ext^1
        is D(X, Y) modulo them."""
        alg, _ = a2
        sums = list(a2_sums(alg, 3).values())
        families = [sums, [reduce_module(m, 3) for m in sums],
                    list(two_loop[1].values()), list(three_vertex[1].values()),
                    [deformed_a2_module(Fraction(a))
                     for a in (1, 2, -1, Fraction(1, 2), 3)]]
        for mods in families:
            for x, y in itertools.product(mods, repeat=2):
                space = ext1_space(x, y)
                assert space.d_basis.nrows - space.dim == \
                    sum(a * b for a, b in zip(x.dims, y.dims)) - hom_dim(x, y)

    def test_key_names_the_algebra(self, a2):
        """P1's matrices over the doubled quiver without relations have a
        self-extension; over the preprojective algebra they have none."""
        alg, mods = a2
        free = validate_presentation(alg.quiver, [])
        p1 = mods["P1"]
        p1_free = module_from_fractions(free, RATIONALS, {"1": 1, "2": 1},
                                        {"a": [[1]], "a*": [[0]]})
        assert p1_free.matrices == p1.matrices
        assert p1_free.key() != p1.key()
        for order in ((p1, p1_free), (p1_free, p1)):
            memo.clear_all()
            for m in order:
                assert ext_dim(m, m) == (1 if m is p1_free else 0)


class TestEquationBuilder:
    """D(X, Y), the kernel of the Ext^1 equation matrix, against a sweep
    of every tuple over GF(p): its basis tuples satisfy the relations, and
    p^dim D(X, Y) tuples do.  GF(3) tells the signs of the relation terms
    apart; GF(2) reaches larger tuple spaces."""

    @staticmethod
    def plain(x, y, p):
        q = x.algebra.quiver
        arrows = [(q.vertex_index(a.source), q.vertex_index(a.target),
                   xm.rows, ym.rows)
                  for a, xm, ym in zip(q.arrows, x.matrices, y.matrices)]
        relations = []
        for rel in x.algebra.relations:
            src, tgt = rel.endpoints(q)
            relations.append([
                (c.numerator * pow(c.denominator, -1, p) % p,
                 q.vertex_index(src), q.vertex_index(tgt),
                 tuple(q.arrow_index(a) for a in path.arrows))
                for c, path in rel.terms])
        return arrows, relations

    @pytest.mark.parametrize("p, max_coords, npairs",
                             [(2, 12, 225 + 144 + 81), (3, 5, 311)])
    def test_dimension_matches_the_tuple_count(self, a2, two_loop,
                                                three_vertex, p,
                                                max_coords, npairs):
        alg, _ = a2
        simples3 = list(three_vertex[1].values())
        families = [list(a2_sums(alg, 3).values()),
                    list(two_loop[1].values()),
                    simples3 + [direct_sum(a, b) for a, b in
                                itertools.combinations_with_replacement(
                                    simples3, 2)]]
        checked = 0
        for mods in families:
            mods_p = [reduce_module(m, p) for m in mods]
            for x, y in itertools.product(mods_p, repeat=2):
                space = ext1_space(x, y)
                if space.total > max_coords:
                    continue
                arrows, relations = self.plain(x, y, p)
                # the basis lies in the solution set and spans all of it
                assert all(extension_tuple_satisfies(
                    x.dims, y.dims, arrows, relations, row, p)
                    for row in space.d_basis.rows)
                assert p ** space.d_basis.nrows == count_extension_tuples(
                    x.dims, y.dims, arrows, relations, p), (x.dims, y.dims)
                checked += 1
        assert checked == npairs


class TestMiddleTerm:
    def test_nonzero_class_is_a_nonsplit_extension(self, a2):
        _, mods = a2
        space = ext1_space(mods["S1"], mods["S2"])
        assert space.dim == 1
        coords = (space.field.one,)
        L = middle_term(space, coords)
        assert is_isomorphic(L, mods["P1"])[0]
        # the Y coordinates, first at each vertex, span a submodule
        # isomorphic to Y with quotient isomorphic to X
        field = space.field
        witness = [span(field, identity(field, d + e).rows[:d], d + e)
                   for d, e in zip(space.y.dims, space.x.dims)]
        sub, quot, _, _ = sub_quotient(L, witness)
        assert is_isomorphic(sub, space.y)[0]
        assert is_isomorphic(quot, space.x)[0]

    def test_zero_class_splits(self, a2):
        _, mods = a2
        space = ext1_space(mods["S1"], mods["S2"])
        L = middle_term(space, (space.field.zero,) * space.dim)
        assert is_isomorphic(L, direct_sum(mods["S2"], mods["S1"]))[0]

    def test_reduce_roundtrip(self, a2):
        _, mods = a2
        space = ext1_space(mods["S1"], mods["S2"])
        coords = (space.field.one,)
        assert space.reduce(space.class_tuple(coords)) == coords
        zero = (space.field.zero,) * space.dim
        assert space.reduce(space.class_tuple(zero)) == zero


class TestPushouts:
    @pytest.mark.parametrize("p, nchecks", [(2, 784), (3, 2051)])
    def test_hom_out_of_the_middle_term(self, a2, p, nchecks):
        """hom(E, Z) = hom(M, Z) + hom(N, Z) - rank(f -> f_* xi) over a
        basis f of Hom(N, Z), on every class xi of Ext^1(M, N), M, N and Z
        among the small direct sums: the connecting map of Hom(-, Z)
        pushes xi out along each f."""
        alg, _ = a2
        sums = [reduce_module(m, p) for m in a2_sums(alg, 2).values()]
        field = GF(p)
        checked = 0
        for m, n in itertools.product(sums, repeat=2):
            space = ext1_space(m, n)
            for coords in itertools.product(range(p), repeat=space.dim):
                e = middle_term(space, coords)
                for z in sums:
                    dst = ext1_space(m, z)
                    cols = [mat_vec(field, transport_matrix(
                                space, dst, f, "pushout"), coords)
                            for f in hom_basis(n, z).basis]
                    delta = Mat(tuple(cols), len(cols), dst.dim)
                    assert hom_dim(e, z) == (hom_dim(m, z) + hom_dim(n, z)
                                             - rank(field, delta))
                    checked += 1
        assert checked == nchecks


class TestTransport:
    def test_identity_maps_fix_classes(self, a2):
        _, mods = a2
        space = ext1_space(mods["S1"], mods["S2"])
        field = space.field
        ident = tuple(Mat(((field.one,),) if d else (), d, d)
                      for d in mods["S2"].dims)
        coords = (field.one,)
        assert mat_vec(field, transport_matrix(space, space, ident,
                                               "pushout"), coords) == coords

    def test_zero_map_kills_classes(self, a2):
        _, mods = a2
        space = ext1_space(mods["S1"], mods["S2"])
        field = space.field
        zero_maps = tuple(Mat(tuple((field.zero,) * d for _ in range(d)),
                              d, d) for d in mods["S2"].dims)
        coords = (field.one,)
        assert mat_vec(field, transport_matrix(space, space, zero_maps,
                                               "pushout"), coords) \
            == (field.zero,) * space.dim

    def test_side_mismatch_rejected(self, a2):
        _, mods = a2
        s12 = ext1_space(mods["S1"], mods["S2"])
        s21 = ext1_space(mods["S2"], mods["S1"])
        with pytest.raises(ExtError):
            transport_matrix(s12, s21, (), "pushout")


def _submodules(m, dims=None):
    """(submodule, inclusion) for each submodule of m of the dimension
    vectors ``dims``, or of every dimension vector."""
    dims = dims or itertools.product(*(range(d + 1) for d in m.dims))
    return [(sub, incl) for e in dims for rows in iter_submodules(m, e)
            for sub, _, incl, _ in [sub_quotient(m,
                                                 witness_from_rows(m, rows))]]


class TestBlockMapIdentity:
    """For every pair of submodules M1 <= M, N1 <= N the two block maps
    satisfy: dim(first-block projection of ker beta') +
    dim{v : (v, 0) in im beta} = dim Ext^1(M, N)."""

    @pytest.mark.parametrize("la,lb", [("S1", "S2"), ("S2", "S1"),
                                       ("P1", "P2"), ("S1", "P1")])
    def test_grassmannian_form(self, a2, la, lb):
        _, mods = a2
        p = 5
        m = reduce_module(mods[la], p)
        n = reduce_module(mods[lb], p)
        target = ext_dim(m, n)
        checked = 0
        for (m1, m1_incl), (n1, n1_incl) in itertools.product(
                _submodules(m), _submodules(n)):
            a, b = lemma_dims(m, n, m1, m1_incl, n1, n1_incl)
            assert a + b == target
            checked += 1
        assert checked >= 4

    def test_flag_form(self, a2):
        _, mods = a2
        p = 3
        m = reduce_module(direct_sum(mods["S1"], mods["S2"]), p)
        n = reduce_module(mods["P1"], p)
        target = ext_dim(m, n)

        def to_zero(x):
            return _submodules(x, [(0,) * len(x.dims)])

        # length-2 flags: pick any codimension-(1,0) or (0,1) submodule step
        for m1 in _submodules(m, [(1, 0), (0, 1)]):
            for n1 in _submodules(n, [(1, 1), (1, 0), (0, 1)]):
                a, b = flag_lemma_dims(m, (m1, *to_zero(m1[0])),
                                       n, (n1, *to_zero(n1[0])))
                assert a + b == target

    @staticmethod
    def chains(m, length):
        """Every chain m = M_0 >= M_1 >= ... >= M_length = 0 of submodules,
        equal steps allowed, as flag steps."""
        if length == 0:
            return [()] if m.is_zero() else []
        return [(step,) + rest for step in _submodules(m)
                for rest in TestBlockMapIdentity.chains(step[0], length - 1)]

    @pytest.mark.parametrize("la, lb, npairs", [("S1+S2", "S1", 27),
                                                ("S1", "S2+P1", 78)])
    def test_flag_form_length_three(self, a2, la, lb, npairs):
        """Flags of length 3 run the cross-block terms of both maps: the
        pullback of eps_k along N_{k+1} -> N_k into block k+1 of beta, and
        the pushout of eta_k along N_k -> N_{k-1} into block k-1 of
        beta'."""
        alg, _ = a2
        sums = a2_sums(alg, 3)
        m, n = (reduce_module(sums[lab], 3) for lab in (la, lb))
        target = ext_dim(m, n)
        checked = 0
        for steps_m in self.chains(m, 3):
            for steps_n in self.chains(n, 3):
                a, b = flag_lemma_dims(m, steps_m, n, steps_n)
                assert a + b == target
                checked += 1
        assert checked == npairs


class TestWidth:
    """w = dim push(ker pull) of beta against a brute-force count: the
    classes push(xi) over every xi in Ext^1(N, M1) with pull(xi) = 0 number
    p^w.  On every pair of submodules N1 <= N, M1 <= M of every pair of
    parts (N, M) of the four built-in algebras, at p = 2 and 3 where the
    parts reduce (equal reductions once).  Budget: 2 s."""

    def test_matches_bruteforce(self, a2, two_loop, three_vertex_catalog):
        _, loops = two_loop
        simples, cat = three_vertex_catalog
        families = [
            list(a2[1].values()),
            [loops[x] for x in ("S", "N(1,0)", "N(0,1)", "N(1,1)")],
            [deformed_a2_module(Fraction(a)) for a in (1, 2, -1)],
            [simples["S3"]] + [cat[x] for x in ("S1", "S2", "E")]]
        widths = []
        for p, rational in itertools.product((2, 3), families):
            subs = {}
            for x in rational:
                try:
                    x = reduce_module(x, p)
                except FieldError:
                    continue
                subs[x] = _submodules(x)
            for n, m in itertools.product(subs, repeat=2):
                for (n1, n1_incl), (m1, m1_incl) in itertools.product(
                        subs[n], subs[m]):
                    push, pull = beta_map(n, m, n1, n1_incl, m1, m1_incl)
                    reached = {mat_apply(push.rows, xi, p)
                               for xi in all_vectors(push.ncols, p)
                               if not any(mat_apply(pull.rows, xi, p))}
                    widths.append(pushed_kernel_dim(n.field, push, pull))
                    assert len(reached) == p ** widths[-1]
        assert len(widths) == 624
        assert sum(w > 0 for w in widths) == 102
        assert max(widths) == 4


class TestSymmetryAudit:
    def test_a2_all_pairs_symmetric(self, a2):
        _, mods = a2
        labels = sorted(mods)
        pairs = [(mods[a], mods[b])
                 for a, b in itertools.product(labels, repeat=2)]
        rep = ext_symmetry_audit(pairs)
        assert rep.passed
        assert len(rep.rows) == 16

    def test_asymmetric_pair_detected(self, three_vertex):
        _, s = three_vertex
        rep = ext_symmetry_audit([(s["S1"], s["S2"])])
        assert not rep.passed
        assert rep.failures()[0].dim_mn == 1
        assert rep.failures()[0].dim_nm == 0
