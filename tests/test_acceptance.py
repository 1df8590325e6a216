"""End-to-end acceptance suite.

Every check here compares exact integers; each test carries the runtime
budget it must meet on a stock machine.
"""

import itertools
import json
import os
import time

import pytest

from extsym.counting import (count_efg, count_flags, count_grassmannian,
                             FlagType, iter_submodules, stratify_ext_classes)
from extsym.delta import check_delta_multiplicativity
from extsym.ext import (beta_map, beta_prime_map, ext1_space, ext_dim,
                        ext_symmetry_audit, image_first_block_dim,
                        kernel_projection_dim, middle_term)
from extsym.euler import (EulerError, euler_of, interpolate_euler,
                          projective_space_degree_bound)
from extsym.counting import CountSeries
from extsym.fields import RATIONALS
from extsym.instances import (a2_catalog, a2_modules, a2_preprojective,
                              a2_sums, three_vertex_algebra,
                              three_vertex_simples, two_loop_modules)
from extsym.linalg import Mat, mat_from_fractions, rank
from extsym.modules import (conjugate, direct_sum, direct_sum_many, hom_dim,
                            reduce_module, sub_quotient, witness_from_rows)
from extsym.verify import verify_formula1, verify_formula2

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
        l23, _, _ = middle_term(ext1_space(s2, s3),
                                (ext1_space(s2, s3).field.one,))
        l32, _, _ = middle_term(ext1_space(s3, s2),
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
            ev = euler_of(
                f"proj{n}", lambda q, n=n: (q ** (n + 1) - 1) // (q - 1),
                projective_space_degree_bound(n + 1), PRIMES)
            assert ev.value == n + 1
        for n in range(1, 5):
            assert euler_of(f"aff{n}", lambda q, n=n: q ** n, n,
                            PRIMES).value == 1
        alg = a2_preprojective()
        mods = a2_modules(alg)
        for d in range(1, 5):
            big = direct_sum_many(alg, RATIONALS, [mods["S1"]] * d)
            for k in range(d + 1):
                ev = euler_of(
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
                assert count_flags(cat_q[lab], FlagType((0, 1), (1, 1)),
                                   sq) == want["drop_S1_first"]
                assert count_flags(cat_q[lab], FlagType((1, 0), (1, 1)),
                                   sq) == want["drop_S2_first"]
                for e_str, cnt in node["submodules"][lab].items():
                    e = tuple(int(x) for x in e_str.split(","))
                    assert count_grassmannian(cat_q[lab], e) == cnt
            for e_str, cnt in node["correction"].items():
                e = tuple(int(x) for x in e_str.split(","))
                assert count_efg(nq, mq, e) == cnt

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
                            bp = beta_map(n, m, n1, n1_incl, m1, m1_incl)
                            bq = beta_prime_map(m, n, m1, m1_incl,
                                                n1, n1_incl)
                            a = kernel_projection_dim(m.field, bq.matrix,
                                                      bq.src_mn.dim)
                            b = image_first_block_dim(m.field, bp.matrix,
                                                      bp.dst_nm.dim)
                            assert a + b == target, (la, lb, e1, e2)


def test_6_counting_invariants(a2):
    """Stratification totals, projectivization divisibility and base-change
    invariance; all exact."""
    alg, mods = a2
    cat = a2_catalog(alg, 2)

    # stratification totals equal the line count of the extension space at
    # every sampled prime, and the cone series divide by q - 1
    for la, lb in [("S1", "S2"), ("S2", "S1")]:
        samples = []
        for q in (2, 3, 5, 7):
            mq = reduce_module(mods[la], q)
            nq = reduce_module(mods[lb], q)
            cat_q = {k: reduce_module(c, q) for k, c in cat.items()
                     if c.dims == (1, 1)}
            counts = stratify_ext_classes(mq, nq, cat_q)
            d = ext_dim(mq, nq)
            assert sum(counts.values()) == (q ** d - 1) // (q - 1)
            samples.append((q, sum(counts.values()) * (q - 1)))
        # the cone count is divisible by q - 1 by construction; the
        # projectivization path must accept it
        from extsym.euler import projectivize_series
        series = CountSeries("cone", tuple(samples), 2)
        assert interpolate_euler(projectivize_series(series)).value == 1

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
        m, FlagType((0, 1, 1), (1, 1, 1)),
        [reduce_module(mods["S1"], p), reduce_module(mods["S2"], p)])
    for _ in range(5):
        g = tuple(random_invertible(d) for d in m.dims)
        tw = conjugate(m, g)
        for e, want in base_counts.items():
            assert count_grassmannian(tw, e) == want
        assert count_flags(
            tw, FlagType((0, 1, 1), (1, 1, 1)),
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


def test_7_consistency_check_catches_corruption(a2):
    """Every interpolation carries surplus-prime checks; a single corrupted
    sample must be rejected."""
    alg, mods = a2

    # a clean series passes and reports the consistency verdict
    good = euler_of("clean", lambda q: q + 1, 1, PRIMES)
    assert good.consistency == "verified"

    # corrupt one sample of the same series: detected
    samples = [(q, q + 1) for q in PRIMES[:4]]
    samples[-1] = (samples[-1][0], samples[-1][1] + 1)
    with pytest.raises(EulerError, match="interpolation predicts"):
        interpolate_euler(CountSeries("corrupted", tuple(samples), 1))

    # corrupting a prime-field count inside the pipeline is also caught:
    # lie about the submodule count at the largest prime
    m = mods["P1"]

    def lying_counter(q):
        true = count_grassmannian(reduce_module(m, q), (0, 1))
        return true + (1 if q >= 7 else 0)

    with pytest.raises(EulerError):
        euler_of("lying", lying_counter, 2, [2, 3, 5, 7, 11])
