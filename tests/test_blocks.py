"""Presentation blocks on every built-in algebra, over Q and GF(p): the
block split of a module, and Hom and Ext^1 dimensions and prime
certificates read block by block, against whole-module values and the
plain elimination of tests/oracle.py."""

import itertools
import random
from fractions import Fraction

import pytest

from extsym import counting
from extsym.ext import ext1_equations, ext1_space, ext_dim
from extsym.fields import GF, RATIONALS, FieldError
from extsym.instances import (a2_modules, a2_preprojective, deformed_a2,
                              deformed_a2_module, three_vertex_algebra,
                              three_vertex_simples, two_loop_modules)
from extsym.linalg import Mat
from extsym.modules import (ModuleError, blocks, check_module,
                            direct_sum_many, hom_basis, hom_dim,
                            module_from_fractions, reduce_module)

from oracle import conjugate, hom_equations, null_space_dim

QQ = RATIONALS


def _a2():
    alg = a2_preprojective()
    mods = a2_modules(alg)
    p1_six = module_from_fractions(alg, QQ, {"1": 1, "2": 1},
                                   {"a": [[6]], "a*": [[0]]})
    return alg, [mods[k] for k in ("S1", "S2", "P1", "P2")], p1_six


def _two_loop():
    alg, mods = two_loop_modules()
    n_six = module_from_fractions(alg, QQ, {"v": 2},
                                  {"x": [[0, 6], [0, 0]], "y": [[0, 0]] * 2})
    return alg, [mods[k] for k in ("S", "N(1,0)", "N(1,1)", "N(2,3)")], n_six


def _deformed():
    # a and a* = -1/a are units mod 2 and 3 for these values; with the
    # weights (36, -36) the module a = 6, a* = -6 reduces to S1 + S2
    alg = deformed_a2()
    wide = deformed_a2(Fraction(36), Fraction(-36))
    six = module_from_fractions(wide, QQ, {"1": 1, "2": 1},
                                {"a": [[6]], "a*": [[-6]]})
    return alg, [deformed_a2_module(Fraction(a)) for a in (1, -1, 5)], six


def _three_vertex():
    alg = three_vertex_algebra()
    s = three_vertex_simples(alg)

    def line(arrow, dims, entry=1):
        return module_from_fractions(alg, QQ, dims, {arrow: [[entry]]})

    e = line("a", {"1": 1, "2": 1})
    b = line("b", {"2": 1, "3": 1})
    bstar = line("b*", {"2": 1, "3": 1})
    return alg, [s["S1"], s["S2"], s["S3"], e, b, bstar], \
        line("a", {"1": 1, "2": 1}, 6)


INSTANCES = {"a2_preprojective": _a2, "two_loop_algebra": _two_loop,
             "deformed_a2": _deformed, "three_vertex_algebra": _three_vertex}
FIELDS = [0, 2, 3]


@pytest.fixture(scope="module", params=list(INSTANCES))
def instance(request):
    return INSTANCES[request.param]()


def _over(p, mods):
    return list(mods) if not p else [reduce_module(x, p) for x in mods]


def _sums(alg, p, parts, max_total=4):
    """(parts, direct sum) for every multiset of two or three parts of
    total dimension at most ``max_total``."""
    field = GF(p) if p else QQ
    return [(combo, direct_sum_many(alg, field, combo))
            for r in (2, 3)
            for combo in itertools.combinations_with_replacement(parts, r)
            if sum(x.total_dim for x in combo) <= max_total]


def _oracle_dims(x, y, p):
    """(dim Hom, dim Ext^1) of the whole modules by plain elimination:
    Ext^1 is the solution space of the Ext^1 equations modulo the image of
    the Hom unknowns, whose rank is their number less dim Hom."""
    rows, nvars = hom_equations(x, y)
    hom = null_space_dim(rows, nvars, p or None)
    eqs = ext1_equations(x, y)
    return hom, null_space_dim(eqs.rows, eqs.ncols, p or None) - (nvars - hom)


def _keys(mods):
    return sorted(x.key() for x in mods)


@pytest.mark.parametrize("p", FIELDS)
def test_blocks_recover_the_parts_of_a_sum(instance, p):
    alg, parts, _ = instance
    parts = _over(p, parts)
    for x in parts:
        assert blocks(x) == (x,)
    for combo, total in _sums(alg, p, parts):
        got = blocks(total)
        assert _keys(got) == _keys(combo)
        # in the order of their first basis vectors, and modules as given
        firsts = [next(i for i, d in enumerate(b.dims) if d) for b in got]
        assert firsts == sorted(firsts)
        for b in got:
            check_module(alg, b.field, b.dims_dict(),
                         {a.name: m for a, m in zip(alg.quiver.arrows,
                                                    b.matrices)})


def _mixed(m, rng):
    """M conjugated by invertible matrices drawn from ``rng``, one per
    vertex, redrawn until the result is one block (at most 200 draws)."""
    values = [m.field.from_fraction(Fraction(v))
              for v in range(m.field.char or 5)]
    for _ in range(200):
        g = [Mat(tuple(tuple(rng.choice(values) for _ in range(d))
                       for _ in range(d)), d, d) for d in m.dims]
        try:
            mixed = conjugate(m, g)
        except ModuleError:  # a draw that is not invertible
            continue
        if len(blocks(mixed)) == 1:
            return mixed
    raise AssertionError(f"no draw mixes the blocks of {m.dims}")


def _has_arrows(x):
    return any(any(r) for m in x.matrices for r in m.rows)


@pytest.mark.parametrize("p", FIELDS)
def test_a_conjugated_sum_is_one_block_with_the_same_dims(instance, p):
    """A base change that mixes the summands' vectors leaves one block, so
    the dimensions come from the whole module and must equal the
    block-wise ones of the sum."""
    alg, parts, _ = instance
    parts = _over(p, parts)
    rng = random.Random(1)
    checked = 0
    for combo, total in _sums(alg, p, parts):
        if not all(map(_has_arrows, combo)):
            continue  # a part with zero arrows may stay a block of its own
        mixed = _mixed(total, rng)
        for y in parts:
            assert hom_dim(mixed, y) == hom_dim(total, y)
            assert hom_dim(y, mixed) == hom_dim(y, total)
            assert ext_dim(mixed, y) == ext_dim(total, y)
            assert ext_dim(y, mixed) == ext_dim(y, total)
        checked += 1
    assert checked


@pytest.mark.parametrize("p", FIELDS)
def test_blockwise_dims_equal_whole_module_ones(instance, p):
    alg, parts, _ = instance
    mods = _over(p, parts) + [m for _, m in _sums(alg, p, _over(p, parts),
                                                  max_total=3)]
    for x, y in itertools.product(mods, repeat=2):
        whole = (hom_basis(x, y).dim, ext1_space(x, y).dim)
        assert (hom_dim(x, y), ext_dim(x, y)) == whole
        assert whole == _oracle_dims(x, y, p)


PRIMES_BELOW_30 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_blockwise_certificates_are_valid(instance):
    """At every prime that divides no certificate, the reductions keep the
    whole modules' dimensions, and the screen accepts exactly the primes
    that keep them."""
    alg, parts, six = instance
    mods = parts + [six] + [m for _, m in _sums(alg, 0, parts, max_total=3)]
    mods = [x for x in mods if x.algebra.key() == alg.key()]
    for x, y in itertools.product(mods, repeat=2):
        cert = counting.prime_certificate(x, y)
        assert cert > 0
        rational = _oracle_dims(x, y, 0)
        for p in PRIMES_BELOW_30:
            try:
                reduced = _oracle_dims(reduce_module(x, p),
                                       reduce_module(y, p), p)
            except FieldError:  # no reduction at p
                assert cert % p == 0
                continue
            if cert % p:
                assert reduced == rational, (x.dims, y.dims, p)
            assert counting.good_prime_for_pairs([(x, y)], p) == \
                (reduced == rational)


@pytest.mark.parametrize("p", [2, 3])
def test_an_entry_vanishing_mod_p_splits_the_reduction(instance, p):
    alg, parts, six = instance
    red = reduce_module(six, p)
    assert len(blocks(six)) == 1 < len(blocks(red))
    probes = [red] + [reduce_module(x, p) for x in parts
                      if x.algebra.key() == six.algebra.key()]
    for x, y in itertools.product(probes, repeat=2):
        whole = (hom_basis(x, y).dim, ext1_space(x, y).dim)
        assert (hom_dim(x, y), ext_dim(x, y)) == whole \
            == _oracle_dims(x, y, p)
