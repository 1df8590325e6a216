"""Evaluation signatures of modules and the strata they induce."""

import ast
import itertools
import pkgutil

import pytest

import extsym
from extsym import delta, memo
from extsym import verify as pipeline
from extsym.counting import CountError, count_flags, named_summands
from extsym.delta import (DeltaError, all_dim_vectors,
                          check_delta_multiplicativity, convolve,
                          delta_signature, enumerate_flag_types,
                          evaluation_form, slot_value, stratify_by_signature)
from extsym.euler import PRIME_LIMIT, EulerError, select_primes
from extsym.instances import a2_catalog, a2_sums
from extsym.modules import (Catalog, ModuleError, direct_sum,
                            module_from_fractions, reduce_module,
                            zero_module)
from extsym.fields import RATIONALS
from extsym.verify import verify_formula1, verify_formula2

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

    def test_zero_simple_refused(self, a2):
        alg, mods = a2
        simples = [mods["S1"], zero_module(alg, RATIONALS), mods["S2"]]
        with pytest.raises(DeltaError, match="zero module .* index 1$"):
            enumerate_flag_types((1, 1), simples)

    def test_memoised_by_dimension_vectors(self, a2):
        """Simples with the same dimension vectors share one list; a zero
        simple is refused whatever is memoised."""
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        types = enumerate_flag_types((2, 1), simples)
        reduced = [reduce_module(s, 5) for s in simples]
        assert enumerate_flag_types([2, 1], reduced) is types
        with pytest.raises(DeltaError, match="zero module .* index 0$"):
            enumerate_flag_types((2, 1), [zero_module(alg, RATIONALS),
                                          *simples])

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

    def test_factor_of_dimension_two_at_a_vertex(self, two_loop):
        _, mods = two_loop
        ss = mods["S+S"]
        assert delta_signature(ss, "flag", [ss]).values() == {(0,): 1}

    def test_grassmann_mode(self, a2):
        _, mods = a2
        sig = delta_signature(mods["P1"], "grassmann", [], label="P1",
                              primes=PRIMES)
        # only the zero, the socle line and the whole module are submodules
        assert sig.values() == {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1}

    @pytest.mark.parametrize("label", ["S1+S1+S1", "S1+S1+P1"])
    def test_grassmann_slots_equal_slots_fitted_alone(self, a2, label):
        """The slots of a grassmann form have unequal degree bounds.  Each
        is fitted on the first bound + 2 primes of the form's screen, so
        its value, polynomial and samples are those of the slot screened
        and fitted alone."""
        alg, _ = a2
        m = a2_sums(alg, 4)[label]
        table = delta_signature(m, "grassmann", []).table
        assert len({ev.degree_bound for _, ev in table}) > 1
        for slot, ev in table:
            assert ev.as_dict() == \
                slot_value(m, "grassmann", slot).as_dict(), slot

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

    def test_grassmann_table_does_not_depend_on_simples(self, a2):
        _, mods = a2
        memo.clear_all()
        a = delta_signature(mods["P1"], "grassmann", [mods["S1"], mods["S2"]],
                            primes=PRIMES)
        b = delta_signature(mods["P1"], "grassmann", [mods["S2"]],
                            primes=PRIMES)
        assert a is b


class TestNoFlagType:
    """A nonzero module that no sequence of the simples builds has no flag
    type; its flag signature is refused, not read as an empty table."""

    def test_signature_refused(self, a2):
        _, mods = a2
        m = direct_sum(mods["S2"], mods["P1"])
        with pytest.raises(DeltaError, match=r"^S2\+P1 of dimension vector "
                           r"\(1, 2\) has no flag type: .*\(\(1, 0\)\)"):
            delta_signature(m, "flag", [mods["S1"]], label="S2+P1",
                            primes=PRIMES)
        with pytest.raises(DeltaError, match=r"vectors \(none\)"):
            delta_signature(m, "flag", [], primes=PRIMES)
        # grassmann mode does not read the simples
        assert delta_signature(m, "grassmann", [], primes=PRIMES).table

    def test_zero_module_keeps_its_empty_type(self, a2):
        alg, mods = a2
        z = zero_module(alg, RATIONALS)
        for simples in ([], [mods["S1"]]):
            assert delta_signature(z, "flag", simples,
                                   primes=PRIMES).values() == {(): 1}

    def test_multiplicativity_refused(self, a2):
        _, mods = a2
        with pytest.raises(DeltaError, match=r"\(1, 1\) has no flag type"):
            check_delta_multiplicativity(mods["S1"], mods["S2"], [],
                                         primes=PRIMES)

    @pytest.mark.parametrize("named", [True, False])
    def test_stratification_refused(self, a2, named):
        alg, mods = a2
        cat = a2_catalog(alg, 2)
        with pytest.raises(DeltaError, match=r"^S2 of dimension vector "
                           r"\(0, 1\) has no flag type"):
            stratify_by_signature(cat if named else dict(cat),
                                  [mods["S1"]], "flag", PRIMES)


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


class TestSuppliedValuesMustBePrime:
    def test_values_that_are_not_prime_raise(self, a2, monkeypatch):
        _, mods = a2
        z = zero_module(mods["P1"].algebra, RATIONALS)

        def no_screening(*args, **kwargs):
            raise AssertionError("screened before the values were checked")

        monkeypatch.setattr("extsym.euler.good_prime", no_screening)
        with pytest.raises(EulerError, match="not prime: 4, 6, 8, 9$"):
            select_primes(mods["P1"], z, [], 3,
                          supplied=[4, 6, 8, 9, 2, 3, 5, 7])


class TestSuppliedValuesAreBounded:
    def test_values_above_the_limit_raise_before_primality(self, a2,
                                                           monkeypatch):
        _, mods = a2
        z = zero_module(mods["P1"].algebra, RATIONALS)

        def no_primality_test(n):
            raise AssertionError(f"primality of {n} tested")

        monkeypatch.setattr("extsym.euler._is_prime", no_primality_test)
        with pytest.raises(EulerError,
                           match="exceed 10000: 2305843009213693951, "
                                 "10007$"):
            select_primes(mods["P1"], z, [], 3,
                          supplied=[2305843009213693951, 2, 3, 10007, 5])

    def test_largest_prime_below_the_limit_is_accepted(self, a2):
        _, mods = a2
        z = zero_module(mods["P1"].algebra, RATIONALS)
        assert PRIME_LIMIT == 10000
        assert select_primes(mods["P1"], z, [], 2,
                             supplied=[9973, 9967]) == [9973, 9967]


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
        supplied = stratify_by_signature(
            cat, simples, "flag", primes=[3] + [p for p in PRIMES if p != 3])
        assert supplied == stratify_by_signature(cat, simples, "flag")
        assert sorted(map(sorted, supplied)) == \
            [["P1", "P1'"], ["P2"], ["S1+S2"]]

    @staticmethod
    def screens(record):
        """``select_primes`` recording (extra modules' keys, primes taken)."""
        def screen(m, n, extra, count, primes):
            ps = select_primes(m, n, extra, count, primes)
            record.append(([x.key() for x in extra], ps))
            return ps
        return screen

    def test_verify_formulas(self, a2, monkeypatch):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        cat = dict(a2_catalog(alg, 2))
        cat["P1'"] = self.p1_scaled(alg)
        supplied = [3, 2] + PRIMES[2:]
        given, screened = [], []

        def recording(m, n, extra, count, primes):
            given.append(primes)
            return select_primes(m, n, extra, count, primes)

        for verify in (verify_formula2, verify_formula1):
            auto = verify(mods["S1"], mods["S2"], simples, cat)
            memo.clear_all()
            monkeypatch.setattr(delta, "select_primes", recording)
            monkeypatch.setattr(pipeline, "select_primes",
                                self.screens(screened))
            rep = verify(mods["S1"], mods["S2"], simples, cat,
                         primes=supplied)
            monkeypatch.undo()
            assert rep.rows == auto.rows and rep.passed
            assert rep.strata == auto.strata
            # the strata tables, whose lines P1' may match, skip 3
            strata = [ps for keys, ps in screened
                      if cat["P1'"].key() in keys]
            assert strata and all(3 not in ps for ps in strata)
            # every signature, those of the grouping included, took them
            assert given and all(p == supplied for p in given)
            given.clear()
            screened.clear()

    def test_entries_of_other_dimension_vectors_not_screened(
            self, a2, monkeypatch):
        """The strata screen M, N and the catalog entries of the middle
        term's dimension vector only, the ones a line is matched against:
        a bad entry of another dimension vector keeps 3 in."""
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        cat = dict(a2_catalog(alg, 3))
        cat["P1'+S2"] = direct_sum(self.p1_scaled(alg), mods["S2"])
        entries = [c.key() for c in cat.values() if c.dims == (1, 1)]
        screened = []
        monkeypatch.setattr(pipeline, "select_primes",
                            self.screens(screened))
        for verify in (verify_formula2, verify_formula1):
            memo.clear_all()
            rep = verify(mods["S1"], mods["S2"], simples, cat)
            assert rep.passed
            assert [ps for keys, ps in screened if keys == entries]
            assert all(ps[:2] == [2, 3] for _, ps in screened)
            screened.clear()


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

    def test_mirror_reads_the_counted_sum(self, a2, monkeypatch):
        """(N, M) after (M, N) counts no flag: M + N is built with its
        summands in key order, so both read one memoised form."""
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        m, n = mods["P1"], a2_sums(alg, 2)["S1+S2"]
        memo.clear_all()
        rep = check_delta_multiplicativity(m, n, simples)
        calls = []

        def counted(*args):
            calls.append(args)
            return count_flags(*args)

        monkeypatch.setattr(delta, "count_flags", counted)
        mirror = check_delta_multiplicativity(n, m, simples)
        assert calls == []
        assert mirror.per_type == rep.per_type
        assert rep.passed

    def test_pair_over_two_algebras_refused(self, a2, three_vertex):
        _, mods = a2
        _, other = three_vertex
        for pair in ((mods["S1"], other["S1"]), (other["S1"], mods["S1"])):
            with pytest.raises(ModuleError, match="^direct sum between "
                                                  "modules over different "
                                                  "algebras$"):
                check_delta_multiplicativity(*pair, [mods["S1"]])

    def test_two_loop_pairs(self, two_loop):
        """Every pair of combined dimension <= 3; with one simple, each
        module has one flag type."""
        _, mods = two_loop
        pairs = [(a, b) for a in mods for b in mods
                 if mods[a].total_dim + mods[b].total_dim <= 3]
        assert len(pairs) == 23
        for a, b in pairs:
            rep = check_delta_multiplicativity(mods[a], mods[b], [mods["S"]])
            assert rep.passed, (a, b)
            assert len(rep.per_type) == 1


def split_loop(full, left, right):
    """The sum over 0/1 vectors c of left(j|c) * right(j|1-c), for every
    type j of ``full``, as a loop over the vectors."""
    out = {}
    for jseq in full:
        out[jseq] = 0
        for c in itertools.product((0, 1), repeat=len(jseq)):
            jm = tuple(j for j, ck in zip(jseq, c) if ck)
            jn = tuple(j for j, ck in zip(jseq, c) if not ck)
            if jm in left and jn in right:
                out[jseq] += left[jm] * right[jn]
    return out


class TestConvolution:
    """Evaluation forms of direct sums read from their summands' forms."""

    @pytest.mark.parametrize("mode", ["flag", "grassmann"])
    def test_convolved_forms_equal_counted_on_catalog(self, a2, mode):
        """Every entry of the dimension-5 catalog with at most 3 dimensions
        at each vertex (39 of 49).  Counting a form with 4 or 5 at one
        vertex, as of 4 S1 or 3 S1 + P1, walks the planes of F_p^4 at a
        dozen primes and takes seconds to minutes per entry."""
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        cat = a2_catalog(alg, 5)
        assert cat.indecomposables
        entries = [(lab, c) for lab, c in cat.items() if max(c.dims) <= 3]
        assert len(entries) == 39
        for lab, entry in entries:
            assert evaluation_form(entry, mode, simples, cat, None, lab) \
                == delta_signature(entry, mode, simples).values(), lab

    def test_flag_helper_against_split_loop(self, a2):
        _, mods = a2
        simples = [mods["S1"], mods["S2"]]

        def form(m):
            return delta_signature(m, "flag", simples,
                                   primes=PRIMES).values()

        m = mods["S1"]
        n = direct_sum(mods["S1"], mods["P2"])
        full = form(direct_sum(m, n))
        # the type (S1, S2, S1, S1) repeats the index of S1
        assert (0, 1, 0, 0) in full
        want = split_loop(full, form(m), form(n))
        got = convolve("flag", form(m), form(n))
        assert want[(0, 1, 0, 0)] > 0
        assert {t: got.get(t, 0) for t in full} == want == full

    def test_grassmann_helper_sums_over_dimension_vectors(self, a2):
        _, mods = a2
        gr = {lab: delta_signature(mods[lab], "grassmann", []).values()
              for lab in ("P1", "S1")}
        got = convolve("grassmann", gr["P1"], gr["S1"])
        assert got == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2,
                       (2, 1): 1}
        counted = delta_signature(direct_sum(mods["P1"], mods["S1"]),
                                  "grassmann", []).values()
        assert {e: got.get(e, 0) for e in counted} == counted

    def test_unit_and_unknown_mode(self):
        assert convolve("flag", {(): 1}, {(0, 1): 3}) == {(0, 1): 3}
        with pytest.raises(DeltaError, match="unknown signature mode"):
            convolve("bogus", {}, {})

    def test_named_catalog_counts_only_its_indecomposables(self, a2,
                                                           monkeypatch):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        cat = a2_catalog(alg, 4)
        named = {cat[lab].key() for lab in cat.indecomposables}
        counted = []
        signature = delta.delta_signature

        def recording(m, *args, **kw):
            counted.append(m.key())
            return signature(m, *args, **kw)

        memo.clear_all()
        monkeypatch.setattr(delta, "delta_signature", recording)
        sums = a2_sums(alg, 3)
        for verify in (verify_formula2, verify_formula1):
            rep = verify(mods["S1"], sums["S2+P1"], simples, cat)
            assert rep.passed
            assert rep.details["chi_method"] == "convolution"
        assert counted and set(counted) <= named
        # the multiplicativity check still counts the direct sum itself
        m, n = mods["S1"], sums["S1+P1"]
        assert check_delta_multiplicativity(m, n, simples).passed
        assert direct_sum(m, n).key() in counted
        counted.clear()
        # an unnamed catalog counts the forms of its entries
        rep = verify_formula2(mods["S1"], sums["S2+P1"], simples, dict(cat))
        assert rep.passed and rep.details["chi_method"] == "counted"
        assert set(counted) - named

    def test_forms_are_memoised(self, a2):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        cat = a2_catalog(alg, 4)
        m = cat["S1+S2+P1"]
        once = evaluation_form(m, "flag", simples, cat)
        assert evaluation_form(m, "flag", simples, cat) is once


class TestNamingRefused:
    """A catalog that names S1 and S2 only, yet holds P1 and its sums."""

    @staticmethod
    def short(alg):
        return Catalog(a2_catalog(alg, 4), ("S1", "S2"))

    def test_lookup_names_the_module(self, a2):
        alg, _ = a2
        cat = self.short(alg)
        with pytest.raises(CountError, match="S1\\+P1 has Hom vector"):
            named_summands(cat["S1+P1"], cat, "S1+P1")
        assert named_summands(cat["S1+S1+S2"], cat, "S1+S1+S2") == \
            ("S1", "S1", "S2")

    @pytest.mark.parametrize("verify", [verify_formula2, verify_formula1])
    def test_both_identities_refused(self, a2, verify):
        alg, mods = a2
        cat = self.short(alg)
        with pytest.raises(CountError, match="does not name all"):
            verify(cat["S1+P1"], mods["S2"], [mods["S1"], mods["S2"]], cat)

    def test_unconfirmed_isomorphism_refused(self, a2, monkeypatch):
        """A module presented as the direct sum of its named summands is
        confirmed by its presentation.  P1+S1 is presented otherwise (its
        vertex 1 holds P1 first), so only an isomorphism can confirm it."""
        alg, _ = a2
        cat = a2_catalog(alg, 3)
        memo.clear_all()
        monkeypatch.setattr(extsym.counting, "is_isomorphic",
                            lambda x, y: (False, None))
        assert named_summands(cat["S1+P1"], cat, "S1+P1") == ("S1", "P1")
        with pytest.raises(CountError,
                           match="P1\\+S1 has the Hom vector of S1\\+P1 "
                                 ".* not confirmed isomorphic"):
            named_summands(direct_sum(cat["P1"], cat["S1"]), cat, "P1+S1")


def test_summands_read_from_the_presentation(a2, monkeypatch):
    """A module presented as a direct sum of named modules is decomposed
    by its presentation: no Hom vector and no isomorphism test, and the
    direct sums of named modules are built once per dimension vector,
    not once per module."""
    alg, _ = a2
    cat = a2_catalog(alg, 4)
    memo.clear_all()
    calls = []
    for name in ("hom_dim", "is_isomorphic", "direct_sum"):
        fn = getattr(extsym.counting, name)
        monkeypatch.setattr(extsym.counting, name,
                            lambda *a, _n=name, _f=fn: calls.append(_n)
                            or _f(*a))
    labels = [lab for lab, c in cat.items() if c.dims == (2, 2)]
    assert len(labels) == 6
    built = None
    for lab in labels:
        assert named_summands(cat[lab], cat, lab) == tuple(lab.split("+"))
        assert set(calls) <= {"direct_sum"}
        built = len(calls) if built is None else built
        assert len(calls) == built > 0


def test_only_evaluation_forms_count_points():
    """Euler characteristics of a module come from its evaluation form:
    no other module of the package, the command layer included, calls the
    point counters."""
    counters = {"count_flags", "count_grassmannian"}
    callers = set()
    for info in pkgutil.iter_modules(extsym.__path__):
        path = f"{extsym.__path__[0]}/{info.name}.py"
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    getattr(f, "attr", None)
                if name in counters:
                    callers.add(info.name)
    assert callers == {"delta"}
