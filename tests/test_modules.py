"""Representation modules: validation, Hom spaces, isomorphism testing,
submodules/quotients, composition chains."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsym.algebra import AlgebraPresentation, make_quiver
from extsym.ext import ext_dim
from extsym.fields import GF, RATIONALS, FieldError
from extsym.instances import a2_catalog
from extsym.linalg import rank
from extsym.modules import (Catalog, ModuleError, composition_series,
                            direct_sum, direct_sum_many, hom_basis, hom_dim,
                            is_isomorphic, module_from_fractions,
                            named_indecomposables, reduce_catalog,
                            reduce_module, search_hom_space,
                            simple_at_vertex, sub_quotient, zero_module)

from oracle import modules_isomorphic_bruteforce, witness_from_rows


class TestValidation:
    def test_relation_violation_rejected(self, a2):
        alg, _ = a2
        with pytest.raises(ModuleError, match="relation"):
            # a = a* = 1 violates both commutator relations at dims (1,1)
            module_from_fractions(alg, RATIONALS, {"1": 1, "2": 1},
                                  {"a": [[1]], "a*": [[1]]})

    def test_shape_mismatch_rejected(self, a2):
        alg, _ = a2
        with pytest.raises(ModuleError):
            module_from_fractions(alg, RATIONALS, {"1": 1, "2": 1},
                                  {"a": [[1, 0]]})

    def test_simple_at_a_missing_vertex_rejected(self, a2):
        alg, mods = a2
        assert simple_at_vertex(alg, RATIONALS, "2") == mods["S2"]
        with pytest.raises(ModuleError, match="^no simple at vertex '9': "
                           "the quiver has vertices '1', '2'$"):
            simple_at_vertex(alg, RATIONALS, "9")


class TestHom:
    def test_dims_on_indecomposables(self, a2):
        _, mods = a2
        S1, S2, P1, P2 = (mods[k] for k in ("S1", "S2", "P1", "P2"))
        assert hom_dim(S1, S1) == 1
        assert hom_dim(S1, S2) == 0
        assert hom_dim(P1, S1) == 1    # top of P1
        assert hom_dim(S2, P1) == 1    # socle of P1
        assert hom_dim(S1, P1) == 0
        assert hom_dim(P1, P1) == 1

    def test_additive_in_direct_sums(self, a2):
        _, mods = a2
        S1, P1 = mods["S1"], mods["P1"]
        both = direct_sum(S1, P1)
        for probe in mods.values():
            assert hom_dim(both, probe) == \
                hom_dim(S1, probe) + hom_dim(P1, probe)
            assert hom_dim(probe, both) == \
                hom_dim(probe, S1) + hom_dim(probe, P1)

    @staticmethod
    def _foreign(a2, three_vertex):
        """Modules over other algebras or fields than the rational S1."""
        mods = a2[1]
        path_alg = AlgebraPresentation(
            make_quiver(("1", "2"), (("a", "1", "2"),)), ())
        return {"three-vertex S1": three_vertex[1]["S1"],
                "path-algebra S1": simple_at_vertex(path_alg, RATIONALS, "1"),
                "S1 mod 3": reduce_module(mods["S1"], 3),
                "S1 mod 5": reduce_module(mods["S1"], 5),
                "P1 mod 5": reduce_module(mods["P1"], 5)}

    @pytest.mark.parametrize("left,right,forward,backward", [
        ("S1", "three-vertex S1", "algebras$", "algebras$"),
        ("S1", "path-algebra S1", "algebras$", "algebras$"),
        ("S1 mod 3", "P1 mod 5", r"fields GF\(3\) and GF\(5\)$",
         r"fields GF\(5\) and GF\(3\)$"),
        ("S1", "P1 mod 5", r"fields QQ and GF\(5\)$",
         r"fields GF\(5\) and QQ$"),
    ])
    def test_modules_over_different_algebras_or_fields_refused(
            self, a2, three_vertex, left, right, forward, backward):
        named = dict(self._foreign(a2, three_vertex), S1=a2[1]["S1"])
        m, n = named[left], named[right]
        for call in (hom_basis, hom_dim):
            with pytest.raises(ModuleError, match="^Hom between modules "
                               "over different " + forward):
                call(m, n)
            with pytest.raises(ModuleError, match="different " + backward):
                call(n, m)

    @pytest.mark.parametrize("other", ["three-vertex S1", "path-algebra S1",
                                       "S1 mod 5", "P1 mod 5"])
    def test_isomorphism_test_refuses_them(self, a2, three_vertex, other):
        foreign = self._foreign(a2, three_vertex)
        for m in (a2[1]["S1"], foreign["S1 mod 3"]):
            with pytest.raises(ModuleError, match="^isomorphism test "
                               "between modules over different "):
                is_isomorphic(m, foreign[other])


    def test_direct_sum_across_relabelled_algebras(self, a2):
        """A label is not part of the algebra: a sum accepts what Hom and
        Ext^1 accept."""
        alg, mods = a2
        other = AlgebraPresentation(alg.quiver, alg.relations, "other")
        s2 = simple_at_vertex(other, RATIONALS, "2")
        assert (hom_dim(mods["S1"], s2), ext_dim(mods["S1"], s2)) == (0, 1)
        both = direct_sum(mods["S1"], s2)
        assert both.key() == direct_sum(mods["S1"], mods["S2"]).key()

    @pytest.mark.parametrize("other", ["three-vertex S1", "path-algebra S1",
                                       "S1 mod 5", "P1 mod 5"])
    def test_direct_sum_refuses_them(self, a2, three_vertex, other):
        foreign = self._foreign(a2, three_vertex)
        for m in (a2[1]["S1"], foreign["S1 mod 3"]):
            with pytest.raises(ModuleError, match="^direct sum between "
                               "modules over different "):
                direct_sum(m, foreign[other])


class TestIsomorphism:
    def test_distinct_indecomposables(self, a2):
        alg, mods = a2
        S1, S2, P1, P2 = (mods[k] for k in ("S1", "S2", "P1", "P2"))
        iso, wit = is_isomorphic(P1, P1)
        assert iso and wit is not None
        assert not is_isomorphic(P1, P2)[0]
        assert not is_isomorphic(P1, direct_sum(S1, S2))[0]

    def test_scaled_copy_is_isomorphic(self, a2):
        alg, mods = a2
        scaled = module_from_fractions(alg, RATIONALS, {"1": 1, "2": 1},
                                       {"a": [[Fraction(7)]], "a*": [[0]]})
        assert is_isomorphic(scaled, mods["P1"])[0]

    @pytest.mark.parametrize("p", [2, 3])
    def test_agrees_with_bruteforce_over_gf(self, a2, p):
        alg, mods = a2
        arrows = [("a", 0, 1), ("a*", 1, 0)]

        def raw(m):
            return [(s, t, m.mat(nm).rows) for nm, s, t in arrows]

        pairs = [("P1", "P2"), ("P1", "P1"), ("S1", "S1"), ("S1", "S2")]
        for la, lb in pairs:
            ma, mb = reduce_module(mods[la], p), reduce_module(mods[lb], p)
            got = is_isomorphic(ma, mb)[0]
            want = ma.dims == mb.dims and modules_isomorphic_bruteforce(
                ma.dims, raw(ma), raw(mb), p)
            assert got == want


def isomorphic_after_all_dimensions(m, n):
    """The isomorphism test with every Hom dimension compared before the
    search."""
    if m.dims != n.dims:
        return False, None
    hb = hom_basis(m, n)
    if hb.dim != hom_dim(n, m) or hom_dim(m, m) != hom_dim(n, n):
        return False, None

    def invertible(phis):
        return all(phi.nrows == phi.ncols
                   and rank(m.field, phi) == phi.nrows for phi in phis)

    hit = search_hom_space(hb, invertible, sum(m.dims))
    return (False, None) if hit is None else (True, hit)


class TestIsomorphismAgainstFullSearch:
    """``is_isomorphic`` tries the first probes before building Hom(N, M)
    and End(M); its answer and witness stay those of the search after all
    four dimensions."""

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_doubled_arrow_catalog(self, a2, p):
        alg, _ = a2
        cat = a2_catalog(alg, 3)
        mods = [c if not p else reduce_module(c, p) for c in cat.values()]
        pairs = [(a, b) for a in mods for b in mods
                 if a.dims == b.dims and not a.is_zero()]
        assert sum(is_isomorphic(a, b)[0] for a, b in pairs) == len(mods)
        for a, b in pairs:
            assert is_isomorphic(a, b) == isomorphic_after_all_dimensions(
                a, b)

    def test_two_loop_modules(self, two_loop):
        _, mods = two_loop
        ms = [reduce_module(m, 5) for m in mods.values()]
        for a in ms:
            for b in ms:
                assert is_isomorphic(a, b) == \
                    isomorphic_after_all_dimensions(a, b)


class TestSubQuotient:
    def test_socle_of_p1(self, a2):
        alg, mods = a2
        P1, S1, S2 = mods["P1"], mods["S1"], mods["S2"]
        wit = witness_from_rows(P1, ((), ((Fraction(1),),)))
        sub, quot, incl, proj = sub_quotient(P1, wit)
        assert is_isomorphic(sub, S2)[0]
        assert is_isomorphic(quot, S1)[0]

    def test_unstable_witness_rejected(self, a2):
        alg, mods = a2
        # the vertex-1 line of P1 is not a submodule (a maps it onto vertex 2)
        wit = witness_from_rows(mods["P1"], (((Fraction(1),),), ()))
        with pytest.raises(ModuleError, match="stable"):
            sub_quotient(mods["P1"], wit)


class TestCompositionSeries:
    def test_p1_socle_first(self, a2):
        _, mods = a2
        simples = [mods["S1"], mods["S2"]]
        series = composition_series(mods["P1"], simples)
        assert series == [1, 0]   # socle S2 found first, then S1

    def test_membership_failure(self, three_vertex):
        _, simples = three_vertex
        # S1 is not built from {S2, S3}
        assert composition_series(simples["S1"],
                                  [simples["S2"], simples["S3"]]) is None

    def test_zero_module_is_member(self, a2):
        alg, mods = a2
        z = zero_module(alg, RATIONALS)
        assert composition_series(z, [mods["S1"], mods["S2"]]) == []


@given(st.sampled_from(["S1", "S2", "P1", "P2"]),
       st.sampled_from(["S1", "S2", "P1", "P2"]))
@settings(max_examples=16, deadline=None)
def test_direct_sum_commutes_up_to_isomorphism(a2, la, lb):
    _, mods = a2
    ab = direct_sum(mods[la], mods[lb])
    ba = direct_sum(mods[lb], mods[la])
    assert is_isomorphic(ab, ba)[0]


def test_reduce_module_checks_relations(a2):
    alg, mods = a2
    r = reduce_module(mods["P1"], 5)
    assert r.field == GF(5)
    assert r.dims == mods["P1"].dims


class TestCatalog:
    def test_names_kept_by_reduction(self, a2):
        alg, _ = a2
        cat = reduce_catalog(a2_catalog(alg, 2), 5)
        assert cat.indecomposables == ("S1", "S2", "P1", "P2")
        assert cat["P1"].field == GF(5)
        assert named_indecomposables(dict(cat)) == ()

    def test_names_limited_to_held_entries(self, a2):
        alg, _ = a2
        assert a2_catalog(alg, 1).indecomposables == ("S1", "S2")

    @pytest.mark.parametrize("names, match", [
        (("S1", "X"), "not catalog entries: X"),
        (("P1", "S1", "P1"), "repeated: P1"), (("O",), "zero modules: O")])
    def test_bad_names_refused(self, a2, names, match):
        alg, mods = a2
        entries = {**mods, "O": zero_module(alg, RATIONALS)}
        with pytest.raises(ModuleError, match=match):
            Catalog(entries, names)


class TestReductionMemo:
    def test_same_object_per_module_and_prime(self, a2):
        _, mods = a2
        assert reduce_module(mods["P1"], 7) is reduce_module(mods["P1"], 7)
        assert reduce_module(mods["P1"], 7) is not reduce_module(mods["P1"],
                                                                 11)

    def test_bad_prime_raises_on_every_call(self, a2):
        alg, _ = a2
        p1 = module_from_fractions(alg, RATIONALS, {"1": 1, "2": 1},
                                   {"a": [[Fraction(1, 5)]], "a*": [[0]]})
        for _ in range(2):
            with pytest.raises(FieldError, match="bad prime 5"):
                reduce_module(p1, 5)
        assert reduce_module(p1, 7).mat("a").rows == ((3,),)
