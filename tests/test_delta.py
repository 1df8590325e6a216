"""Evaluation signatures of modules and the strata they induce."""

import pytest

from extsym.delta import (DeltaError, all_dim_vectors,
                          check_delta_multiplicativity, delta_signature,
                          enumerate_flag_types, stratify_by_signature)
from extsym.instances import a2_catalog
from extsym.modules import module_from_fractions, zero_module
from extsym.fields import RATIONALS

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestTypeEnumeration:
    def test_one_of_each(self, a2):
        _, mods = a2
        simples = [mods["S1"], mods["S2"]]
        assert enumerate_flag_types((1, 1), simples) == [(0, 1), (1, 0)]
        assert enumerate_flag_types((2, 1), simples) == \
            [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_unreachable_dims(self, a2):
        _, mods = a2
        assert enumerate_flag_types((1, 0), [mods["S2"]]) == []

    def test_zero_dims(self, a2):
        _, mods = a2
        assert enumerate_flag_types((0, 0), [mods["S1"], mods["S2"]]) == [()]

    def test_all_dim_vectors(self):
        assert all_dim_vectors((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestSignatures:
    def test_flag_values_distinguish_the_nonsplit_modules(self, a2):
        _, mods = a2
        simples = [mods["S1"], mods["S2"]]
        p1 = delta_signature(mods["P1"], "flag", simples, label="P1",
                             primes=PRIMES)
        p2 = delta_signature(mods["P2"], "flag", simples, label="P2",
                             primes=PRIMES)
        assert p1.values() == {(0, 1): 1, (1, 0): 0}
        assert p2.values() == {(0, 1): 0, (1, 0): 1}
        assert p1 != p2

    def test_split_module_sees_both_orders(self, a2, a2_cat):
        _, mods = a2
        simples = [mods["S1"], mods["S2"]]
        sig = delta_signature(a2_cat["S1+S2"], "flag", simples,
                              label="S1+S2", primes=PRIMES)
        assert sig.values() == {(0, 1): 1, (1, 0): 1}

    def test_grassmann_mode(self, a2):
        _, mods = a2
        sig = delta_signature(mods["P1"], "grassmann", [], label="P1",
                              primes=PRIMES)
        # only the zero, the socle line and the whole module are submodules
        assert sig.values() == {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1}

    def test_unknown_mode(self, a2):
        _, mods = a2
        with pytest.raises(DeltaError, match="mode"):
            delta_signature(mods["P1"], "projective", [], primes=PRIMES)

    def test_label_does_not_affect_equality(self, a2):
        _, mods = a2
        simples = [mods["S1"], mods["S2"]]
        a = delta_signature(mods["P1"], "flag", simples, label="x",
                            primes=PRIMES)
        b = delta_signature(mods["P1"], "flag", simples, label="y",
                            primes=PRIMES)
        assert a == b and hash(a) == hash(b)


class TestStratification:
    def test_total_dim_two_catalog_splits_into_singletons(self, a2):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        cat = {lab: c for lab, c in a2_catalog(alg, 2).items()
               if c.dims == (1, 1)}
        groups = stratify_by_signature(cat, simples, "flag", primes=PRIMES)
        assert sorted(map(sorted, groups)) == [["P1"], ["P2"], ["S1+S2"]]

    def test_idempotent(self, a2):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        cat = {lab: c for lab, c in a2_catalog(alg, 2).items()
               if c.dims == (1, 1)}
        once = stratify_by_signature(cat, simples, "flag", primes=PRIMES)
        again = stratify_by_signature(cat, simples, "flag", primes=PRIMES)
        assert once == again


class TestSuppliedPrimesAreScreened:
    """A supplied prime that breaks reduction is skipped, as in automatic
    selection."""

    @staticmethod
    def p1_scaled(alg):
        # isomorphic to P1 over Q, but the arrow vanishes mod 3
        return module_from_fractions(alg, RATIONALS, {"1": 1, "2": 1},
                                     {"a": [[3]], "a*": [[0]]})

    def test_delta_signature(self, a2):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        m = self.p1_scaled(alg)
        supplied = delta_signature(m, "flag", simples,
                                   primes=[3, 5, 7, 11, 13])
        assert supplied == delta_signature(m, "flag", simples)
        assert supplied.values() == {(0, 1): 1, (1, 0): 0}

    def test_stratify_by_signature(self, a2):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        cat = {lab: c for lab, c in a2_catalog(alg, 2).items()
               if c.dims == (1, 1)}
        cat["P1'"] = self.p1_scaled(alg)
        supplied = stratify_by_signature(cat, simples, "flag",
                                         primes=[3] + PRIMES)
        assert supplied == stratify_by_signature(cat, simples, "flag")
        assert sorted(map(sorted, supplied)) == \
            [["P1", "P1'"], ["P2"], ["S1+S2"]]


class TestMultiplicativity:
    def test_base_pair(self, a2):
        _, mods = a2
        simples = [mods["S1"], mods["S2"]]
        rep = check_delta_multiplicativity(mods["S1"], mods["S2"], simples,
                                           primes=PRIMES)
        assert rep.passed
        assert {t for t, _, _ in rep.per_type} == {(0, 1), (1, 0)}

    def test_equal_summands_projective_line_factor(self, a2):
        _, mods = a2
        simples = [mods["S1"], mods["S2"]]
        rep = check_delta_multiplicativity(mods["S1"], mods["S1"], simples,
                                           primes=PRIMES)
        assert rep.passed
        # chains of S1+S1 of type (S1, S1): one line per point of P^1,
        # chi = 2, split as 1*1 + 1*1 over the two multiplicity vectors
        row = {t: (a, b) for t, a, b in rep.per_type}
        assert row[(0, 0)] == (2, 2)

    def test_zero_summand(self, a2):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        z = zero_module(alg, RATIONALS)
        rep = check_delta_multiplicativity(mods["P1"], z, simples,
                                           primes=PRIMES)
        assert rep.passed

    def test_nontrivial_pair(self, a2):
        _, mods = a2
        simples = [mods["S1"], mods["S2"]]
        rep = check_delta_multiplicativity(mods["P1"], mods["S2"], simples,
                                           primes=PRIMES)
        assert rep.passed
