"""End-to-end acceptance suite.

Every check here compares exact integers; each test carries the runtime
budget it must meet on a stock machine.
"""

import itertools
import json
import os
import time

import pytest

from extsym import memo
from extsym.counting import (count_flags, count_grassmannian,
                             iter_submodules, stratify_ext_classes)
from extsym.delta import check_delta_multiplicativity
from extsym.ext import (beta_map, ext1_space, ext_dim, ext_symmetry_audit,
                        middle_term, pushed_kernel_dim)
from extsym.euler import (EulerError, interpolate_euler,
                          projective_space_degree_bound)
from extsym.fields import RATIONALS
from extsym.instances import (a2_catalog, a2_modules, a2_preprojective,
                              a2_sums)
from extsym.linalg import mat_from_fractions, rank
from extsym.modules import (direct_sum, direct_sum_many, hom_dim,
                            reduce_module, sub_quotient)
from extsym.verify import (VerifyError, run_audit_suite, verify_formula1,
                           verify_formula2)

from oracle import (conjugate, count_efg_pairs, efg_degree_bound,
                    fit_count, lemma_dims, witness_from_rows)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "worked_instance.json")
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, \
                f"runtime budget exceeded: {elapsed:.1f}s >= {self.seconds}s"


def test_1_three_vertex_pair_is_asymmetric(three_vertex):
    """One direction carries a one-dimensional extension space, the other
    none.  Budget: 1 s."""
    with Budget(1):
        _, s = three_vertex
        assert ext_dim(s["S1"], s["S2"]) == 1
        assert ext_dim(s["S2"], s["S1"]) == 0


class TestAsymmetricOverride:
    """Negative control: on the asymmetric pair of test 1 the identities
    are refused, and forced with the override they fail, in both
    directions, at the slots where Ext^1 is one-sided.  Budget: 5 s
    each."""

    def test_refused_without_the_override(self, three_vertex_catalog):
        s, cat = three_vertex_catalog
        for verify in (verify_formula2, verify_formula1):
            with Budget(5), pytest.raises(
                    VerifyError, match="extension-dimension symmetry fails"):
                verify(s["S1"], s["S2"], [s["S1"], s["S2"]], cat)

    @pytest.mark.parametrize("a, b, bad2, bad1", [
        ("S1", "S2", ((1, 0), 1, 0), ((1, 0, 0), 1, 0)),
        ("S2", "S1", ((0, 1), 0, 1), ((0, 1, 0), 0, 1))])
    def test_forced_identities_fail(self, three_vertex_catalog, a, b, bad2,
                                    bad1):
        s, cat = three_vertex_catalog
        for verify, bad in ((verify_formula2, bad2),
                            (verify_formula1, bad1)):
            with Budget(5):
                rep = verify(s[a], s[b], [s["S1"], s["S2"]], cat,
                             allow_asymmetric=True)
            assert not rep.symmetry_ok and not rep.passed
            assert [r for r in rep.rows if r[1] != r[2]] == [bad]


def test_2_symmetry_audits_across_instances(a2, two_loop, three_vertex):
    """Exact dimension symmetry over three instance families.
    Budget: 10 s."""
    with Budget(10):
        # doubled-arrow two-vertex algebra: all pairs of the four
        # indecomposables
        _, mods = a2
        pairs = [(a, b) for a in mods.values() for b in mods.values()]
        assert ext_symmetry_audit(pairs).passed
        assert len(pairs) == 16

        # one-vertex two-loop algebra: all pairs of nilpotent commuting
        # pairs with combined dimension <= 3
        _, nil = two_loop
        npairs = [(a, b) for a in nil.values() for b in nil.values()
                  if a.total_dim + b.total_dim <= 3]
        assert len(npairs) >= 20
        assert ext_symmetry_audit(npairs).passed

        # three-vertex algebra: everything built from the two simples at
        # the doubled edge, total dimension <= 3
        alg3, s = three_vertex
        s2, s3 = s["S2"], s["S3"]
        l23 = middle_term(ext1_space(s2, s3),
                          (ext1_space(s2, s3).field.one,))
        l32 = middle_term(ext1_space(s3, s2),
                          (ext1_space(s3, s2).field.one,))
        bricks = [s2, s3, l23, l32]
        members = []
        for r in range(1, 4):
            for combo in itertools.combinations_with_replacement(bricks, r):
                m = direct_sum_many(alg3, RATIONALS, list(combo))
                if m.total_dim <= 3:
                    members.append(m)
        cpairs = [(a, b) for a in members for b in members]
        assert len(cpairs) > 20
        assert ext_symmetry_audit(cpairs).passed


def test_3_euler_engine_classical_values():
    """Projective spaces, affine spaces and subspace varieties of a
    semisimple module.  Budget: 5 s."""
    import math
    with Budget(5):
        for n in range(5):
            ev = fit_count(
                f"proj{n}", lambda q, n=n: (q ** (n + 1) - 1) // (q - 1),
                projective_space_degree_bound(n + 1), PRIMES)
            assert ev.value == n + 1
        for n in range(1, 5):
            assert fit_count(f"aff{n}", lambda q, n=n: q ** n, n,
                             PRIMES).value == 1
        alg = a2_preprojective()
        mods = a2_modules(alg)
        for d in range(1, 5):
            big = direct_sum_many(alg, RATIONALS, [mods["S1"]] * d)
            for k in range(d + 1):
                ev = fit_count(
                    f"gr{d},{k}",
                    lambda q, k=k: count_grassmannian(reduce_module(big, q),
                                                      (k, 0)),
                    k * (d - k), PRIMES)
                assert ev.value == math.comb(d, k)


def test_4_worked_instance_against_committed_oracle(a2):
    """The worked two-simple instance, cross-checked per prime against the
    committed exhaustive-enumeration fixture.  Budget: 5 s."""
    with Budget(5):
        with open(FIXTURE, encoding="utf-8") as fh:
            fx = json.load(fh)
        alg, mods = a2
        m, n = mods["S1"], mods["S2"]
        simples = [m, n]
        cat = a2_catalog(alg, 2)
        labels = ("P1", "P2", "S1+S2")

        # per-prime cross-checks against the independent enumeration
        for q in fx["primes"]:
            node = fx["per_prime"][str(q)]
            mq, nq = reduce_module(m, q), reduce_module(n, q)
            cat_q = {lab: reduce_module(c, q) for lab, c in cat.items()
                     if c.dims == (1, 1)}
            got = stratify_ext_classes(mq, nq, cat_q)
            assert got == node["ext_lines_sub_at_2"]
            got = stratify_ext_classes(nq, mq, cat_q)
            assert got == node["ext_lines_sub_at_1"]
            sq = [reduce_module(s, q) for s in simples]
            for lab in labels:
                want = node["chains"][lab]
                assert count_flags(cat_q[lab], (0, 1), sq) == \
                    want["drop_S1_first"]
                assert count_flags(cat_q[lab], (1, 0), sq) == \
                    want["drop_S2_first"]
                for e_str, cnt in node["submodules"][lab].items():
                    e = tuple(int(x) for x in e_str.split(","))
                    assert count_grassmannian(cat_q[lab], e) == cnt
            efg = count_efg_pairs(nq, mq)
            for e_str, cnt in node["correction"].items():
                e = tuple(int(x) for x in e_str.split(","))
                assert efg[e] == cnt

        # the symmetric identity with the exact stratum coefficients
        r2 = verify_formula2(m, n, simples, cat)
        assert r2.passed
        assert r2.strata["P1"]["forward"] == 1
        assert r2.strata["P1"]["backward"] == 0
        assert r2.strata["P2"]["forward"] == 0
        assert r2.strata["P2"]["backward"] == 1
        slots = {s: (l, r) for s, l, r in r2.rows}
        assert slots == {(0, 1): (1, 1), (1, 0): (1, 1)}

        # the submodule-variety identity with its correction term
        r1 = verify_formula1(m, n, simples, cat)
        assert r1.passed
        efg = {k.strip("()").replace(" ", ""): v for k, v in r1.efg.items()}
        assert efg == fx["chi"]["correction"]
        assert efg["1,1"] == 0


def test_5_property_suite_over_all_small_pairs(a2):
    """Both identities, multiplicativity and the paired-map dimension
    identity over every direct-sum pair of combined dimension <= 4.
    Budget: 5 min."""
    with Budget(300):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        sums = a2_sums(alg, 3)
        cat = a2_catalog(alg, 4)
        pairs = [(a, b) for a in sums for b in sums
                 if sums[a].total_dim + sums[b].total_dim <= 4]
        assert len(pairs) == 81
        for la, lb in pairs:
            m, n = sums[la], sums[lb]
            assert verify_formula2(m, n, simples, cat).passed, (la, lb)
            assert verify_formula1(m, n, simples, cat).passed, (la, lb)
            assert check_delta_multiplicativity(m, n, simples).passed, \
                (la, lb)

        # paired-map dimension identity on every submodule configuration
        # of a representative sample of the pairs
        p = 3
        sample = [("S1", "S2"), ("P1", "S2"), ("S1+S2", "P2"),
                  ("P1", "P2")]
        for la, lb in sample:
            m = reduce_module(sums[la], p)
            n = reduce_module(sums[lb], p)
            target = ext_dim(m, n)
            for e1 in itertools.product(*[range(d + 1) for d in m.dims]):
                for rows_m in iter_submodules(m, e1):
                    wit = witness_from_rows(m, rows_m)
                    m1, _, m1_incl, _ = sub_quotient(m, wit)
                    for e2 in itertools.product(*[range(d + 1)
                                                  for d in n.dims]):
                        for rows_n in iter_submodules(n, e2):
                            witn = witness_from_rows(n, rows_n)
                            n1, _, n1_incl, _ = sub_quotient(n, witn)
                            a, b = lemma_dims(m, n, m1, m1_incl,
                                              n1, n1_incl)
                            assert a + b == target, (la, lb, e1, e2)


def test_6_counting_invariants(a2):
    """Stratification totals and base-change invariance; all exact."""
    alg, mods = a2
    cat = a2_catalog(alg, 2)

    # stratification totals equal the line count of the extension space at
    # every sampled prime
    for la, lb in [("S1", "S2"), ("S2", "S1")]:
        for q in (2, 3, 5, 7):
            mq = reduce_module(mods[la], q)
            nq = reduce_module(mods[lb], q)
            cat_q = {k: reduce_module(c, q) for k, c in cat.items()
                     if c.dims == (1, 1)}
            counts = stratify_ext_classes(mq, nq, cat_q)
            d = ext_dim(mq, nq)
            assert sum(counts.values()) == (q ** d - 1) // (q - 1)

    # base-change invariance: five conjugations per module
    import random
    rng = random.Random(11)
    p = 5
    m = reduce_module(direct_sum(mods["P1"], mods["S2"]), p)
    field = m.field

    def random_invertible(d):
        while True:
            rows = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
            g = mat_from_fractions(field, rows)
            if rank(field, g) == d:
                return g

    base_counts = {e: count_grassmannian(m, e)
                   for e in itertools.product(range(2), range(3))}
    base_flags = count_flags(
        m, (0, 1, 1),
        [reduce_module(mods["S1"], p), reduce_module(mods["S2"], p)])
    for _ in range(5):
        g = tuple(random_invertible(d) for d in m.dims)
        tw = conjugate(m, g)
        for e, want in base_counts.items():
            assert count_grassmannian(tw, e) == want
        assert count_flags(
            tw, (0, 1, 1),
            [reduce_module(mods["S1"], p),
             reduce_module(mods["S2"], p)]) == base_flags


def test_8_formula2_skips_chains_weighted_by_zero(a2):
    """With Ext^1(M, N) = 0 both ways every row of the symmetric identity
    is 0 = 0, so no chains of M + N are counted.  Dimension vector (5, 0)
    has degree bound 10, too many complete flags of F_p^5 to count at
    every prime.  Budget: 30 s."""
    with Budget(30):
        alg, mods = a2
        s1 = mods["S1"]
        n = direct_sum_many(alg, RATIONALS, [s1] * 4)
        rep = verify_formula2(s1, n, [s1, mods["S2"]], a2_catalog(alg, 5))
        assert rep.rows == (((0, 0, 0, 0, 0), 0, 0),)


def test_9_formula1_skips_terms_weighted_by_zero(a2):
    """With Ext^1(M, N) = 0 both ways every row of the Grassmannian
    identity is 0 = 0: the left side, the strata and the correction are
    all weighted by zero, so none of them is counted.  Dimension vector
    (5, 0).  Budget: 30 s."""
    with Budget(30):
        alg, mods = a2
        s1 = mods["S1"]
        n = direct_sum_many(alg, RATIONALS, [s1] * 4)
        rep = verify_formula1(s1, n, [s1, mods["S2"]], a2_catalog(alg, 5))
        assert rep.rows == tuple(((k, 0), 0, 0) for k in range(6))
        assert set(rep.efg.values()) == {0}


def test_7_consistency_check_catches_corruption(a2):
    """Every interpolation carries surplus-prime checks; a single corrupted
    sample must be rejected."""
    alg, mods = a2

    # a clean series passes and reports the consistency verdict
    good = fit_count("clean", lambda q: q + 1, 1, PRIMES)
    assert good.consistency == "verified"

    # corrupt one sample of the same series: detected
    samples = [(q, q + 1) for q in PRIMES[:4]]
    samples[-1] = (samples[-1][0], samples[-1][1] + 1)
    with pytest.raises(EulerError, match="interpolation predicts"):
        interpolate_euler("corrupted", samples, 1)

    # corrupting a prime-field count inside the pipeline is also caught:
    # lie about the submodule count at the largest prime
    m = mods["P1"]

    def lying_counter(q):
        true = count_grassmannian(reduce_module(m, q), (0, 1))
        return true + (1 if q >= 7 else 0)

    with pytest.raises(EulerError):
        fit_count("lying", lying_counter, 2, [2, 3, 5, 7, 11])


def test_10_dimension_six_pair_within_budget(a2):
    """The Grassmannian identity on a pair of combined dimension 6, with
    its correction table.  The vertex walk enumerates only submodules, so
    the pair fits a tier-1 budget.  Budget: 20 s."""
    with Budget(20):
        alg, mods = a2
        sums = a2_sums(alg, 3)
        rep = verify_formula1(sums["S2+P1"], sums["S1+P2"],
                              [mods["S1"], mods["S2"]], a2_catalog(alg, 6))
        assert rep.passed
        ones = {(0, 1), (0, 2), (1, 1), (1, 3), (2, 2), (2, 3)}
        want = {str(e): 3 if e == (1, 2) else int(e in ones)
                for e in itertools.product(range(4), repeat=2)}
        assert rep.efg == want


def test_11_correction_row_degree_bound(a2):
    """Row e = (1, 1) of the correction term for (S2, 4 S1), counted over
    every submodule pair as the oracle does.  Its pairs are M1 = M with
    the lines N1 of F_q^4 (degree 3), each weighted by a class factor of
    degree up to 3, so the old bound 4 fails its surplus check; the row
    fits at bound 6 with a polynomial of degree 5, below the oracle's
    table bound 7.  The oracle's whole table takes minutes, so the row's
    pairs are counted here.  Budget: 30 s."""
    with Budget(30):
        alg, mods = a2
        m = mods["S2"]
        n = direct_sum_many(alg, RATIONALS, [mods["S1"]] * 4)
        assert efg_degree_bound(m.dims, n.dims, ext_dim(n, m)) == 7

        def row(q):
            mq, nq = reduce_module(m, q), reduce_module(n, q)
            whole = next(iter_submodules(mq, mq.dims))
            m1, _, m1_incl, _ = sub_quotient(mq, witness_from_rows(mq, whole))
            total = 0
            for rows in iter_submodules(nq, (1, 0)):
                n1, n_quot, n1_incl, _ = sub_quotient(
                    nq, witness_from_rows(nq, rows))
                w = pushed_kernel_dim(mq.field, *beta_map(
                    nq, mq, n1, n1_incl, m1, m1_incl))
                total += (q ** w - 1) // (q - 1) * q ** hom_dim(m1, n_quot)
            return total

        assert row(2) == count_efg_pairs(reduce_module(n, 2),
                                         reduce_module(m, 2))[(1, 1)]
        ev = fit_count("correction (1, 1)", row, 6, PRIMES)
        assert ev.value == 12
        assert len(ev.coeffs) - 1 == 5
        with pytest.raises(EulerError, match="count at q=13 is 435540, "
                                             "interpolation predicts 424980"):
            interpolate_euler("old bound", ev.samples[:6], 4)


def test_13_dimension_six_symmetric_identity_within_budget(a2):
    """The symmetric identity on the pair of test 10, caches cold.  The
    catalog names its indecomposables, so the chain forms of M + N and of
    the ten dimension-(3, 3) entries are convolutions of the four counted
    indecomposable forms.  Budget: 10 s."""
    memo.clear_all()
    with Budget(10):
        alg, mods = a2
        sums = a2_sums(alg, 3)
        rep = verify_formula2(sums["S2+P1"], sums["S1+P2"],
                              [mods["S1"], mods["S2"]], a2_catalog(alg, 6))
        assert rep.passed
        assert rep.details["chi_method"] == "convolution"
        assert len(rep.rows) == 20 and len(rep.strata) == 10
        lhs = {tuple(s): v for s, v, _ in rep.rows}
        assert lhs[(0, 0, 0, 1, 1, 1)] == 0
        assert lhs[(0, 1, 0, 1, 0, 1)] == 10
        assert lhs[(1, 1, 0, 0, 0, 1)] == 12
        assert {k: (v["forward"], v["backward"])
                for k, v in rep.strata.items() if v["forward"]
                or v["backward"]} == {"P1+P2+P2": (1, 0),
                                      "P1+P1+P2": (0, 1)}


def test_14_dimension_eight_symmetric_identity_within_budget(a2):
    """The symmetric identity on (S1+S2+P1, S1+S2+P2), combined dimension
    vector (4, 4), caches cold: 70 chain types, read by convolution.
    Budget: 15 s."""
    memo.clear_all()
    with Budget(15):
        alg, mods = a2
        sums = a2_sums(alg, 4)
        m, n = sums["S1+S2+P1"], sums["S1+S2+P2"]
        rep = verify_formula2(m, n, [mods["S1"], mods["S2"]],
                              a2_catalog(alg, 8))
        assert rep.passed
        assert len(rep.rows) == 70
        assert sum(v["forward"] for v in rep.strata.values()) == \
            ext_dim(m, n)
        assert sum(v["backward"] for v in rep.strata.values()) == \
            ext_dim(n, m)
        assert any(lhs for _, lhs, _ in rep.rows)


def test_15_correction_by_localisation_within_budget(a2):
    """The Grassmannian identity, caches cold, on (S1+S2+P1, S1+S2+P2),
    combined dimension vector (4, 4), and on (S1, 4 S2) both ways, whose
    correction classes form P^3.  The correction counts only the block
    pairs of submodules of the named summands, and each indecomposable
    here has finitely many submodules, so every table fits at the degree
    of P Ext^1(N, M).  Budget: 10 s."""
    memo.clear_all()
    with Budget(10):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        sums = a2_sums(alg, 4)
        rep = verify_formula1(sums["S1+S2+P1"], sums["S1+S2+P2"], simples,
                              a2_catalog(alg, 8))
        assert rep.passed
        assert rep.details["correction_method"] == "localised"
        nonzero = {(0, 1): 1, (0, 2): 2, (0, 3): 1, (1, 0): 1, (1, 1): 4,
                   (1, 2): 7, (1, 3): 5, (1, 4): 1, (2, 0): 2, (2, 1): 7,
                   (2, 2): 10, (2, 3): 7, (2, 4): 2, (3, 0): 1, (3, 1): 5,
                   (3, 2): 7, (3, 3): 4, (3, 4): 1, (4, 1): 1, (4, 2): 2,
                   (4, 3): 1}
        assert rep.efg == {str(e): nonzero.get(e, 0)
                           for e in itertools.product(range(5), repeat=2)}
        s2s = direct_sum_many(alg, RATIONALS, [mods["S2"]] * 4)
        cat = a2_catalog(alg, 5)
        for m, n, rows in ((mods["S1"], s2s, ((1, 0), (1, 1), (1, 2),
                                              (1, 3))),
                           (s2s, mods["S1"], ((0, 1), (0, 2), (0, 3),
                                              (0, 4)))):
            rep = verify_formula1(m, n, simples, cat)
            assert rep.passed
            assert {k: v for k, v in rep.efg.items() if v} == {
                str(e): v for e, v in zip(rows, (4, 12, 12, 4))}


def test_16_full_flags_of_a_four_space_within_budget(a2):
    """Multiplicativity of delta on (S1, 3 S1) and on (S2, 3 S2), caches
    cold.  M + N is semisimple at one vertex, so its one flag type counts
    the full flags of F_p^4; its Euler value is 4! = 24.  Every line of
    maps to the simple splits off a copy of it, so each flag step builds
    one kernel weighted by the number of lines, not one per line.
    Budget: 4 s."""
    memo.clear_all()
    with Budget(4):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        sums = a2_sums(alg, 3)
        for j, lab in enumerate(("S1", "S2")):
            rep = check_delta_multiplicativity(
                mods[lab], sums["+".join([lab] * 3)], simples)
            assert rep.per_type == (((j,) * 4, 24, 24),)


def test_17_five_copies_of_a_simple_within_budget(a2):
    """Multiplicativity of delta on (S1, 4 S1) and on (S2, 4 S2), caches
    cold: the full flags of F_p^5, Euler value 5! = 120.  Every line of
    maps to the simple splits off a copy of it, so each flag step builds
    one kernel weighted by the number of lines.  Budget: 2 s."""
    memo.clear_all()
    with Budget(2):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        sums = a2_sums(alg, 4)
        for j, lab in enumerate(("S1", "S2")):
            rep = check_delta_multiplicativity(
                mods[lab], sums["+".join([lab] * 4)], simples)
            assert rep.per_type == (((j,) * 5, 120, 120),)


def test_18_two_loop_pairs_of_dimension_four_within_budget(two_loop):
    """Multiplicativity of delta on N(1,0) with each of N(1,0), N(0,1),
    N(1,1), N(1,-1), N(2,1), N(1,2) and N(3,1) of the two-loop algebra, and
    on each mirror, caches cold.  Each M + N has dimension 4 and one flag
    type; a mirror has the same per-type rows.  Budget: 3 s."""
    memo.clear_all()
    with Budget(3):
        _, mods = two_loop
        simples = [mods["S"]]
        m = mods["N(1,0)"]
        for lab in ("N(1,0)", "N(0,1)", "N(1,1)", "N(1,-1)", "N(2,1)",
                    "N(1,2)", "N(3,1)"):
            rep = check_delta_multiplicativity(m, mods[lab], simples)
            mirror = check_delta_multiplicativity(mods[lab], m, simples)
            assert rep.passed, lab
            assert len(rep.per_type) == 1, lab
            assert mirror.per_type == rep.per_type, lab


def test_19_all_pairs_of_dimension_six_within_budget(a2):
    """Both identities and multiplicativity on every direct-sum pair of
    combined dimension <= 6, caches cold.  Most of the time is
    multiplicativity, whose flag steps onto a simple are built in closed
    form and whose class confirmations probe single Hom vectors.
    Budget: 20 s."""
    memo.clear_all()
    with Budget(20):
        alg, mods = a2
        simples = [mods["S1"], mods["S2"]]
        sums = a2_sums(alg, 5)
        cat = a2_catalog(alg, 6)
        pairs = [(a, b) for a in sums for b in sums
                 if sums[a].total_dim + sums[b].total_dim <= 6]
        assert len(pairs) == 501
        for la, lb in pairs:
            m, n = sums[la], sums[lb]
            assert verify_formula2(m, n, simples, cat).passed, (la, lb)
            assert verify_formula1(m, n, simples, cat).passed, (la, lb)
            assert check_delta_multiplicativity(m, n, simples).passed, \
                (la, lb)


@pytest.mark.parametrize("which, message", [
    (("I", "X", "v"), "unknown audit instances: 'X', 'v'; the built-in ones "
                      "are I, II, III, IV"),
    ((), "no audit instances selected; the built-in ones are I, II, III, "
         "IV")])
def test_12_audit_suite_runs_only_known_instances(which, message):
    """A selection that would run nothing is refused, not passed."""
    with pytest.raises(VerifyError) as err:
        run_audit_suite(which)
    assert str(err.value) == message
