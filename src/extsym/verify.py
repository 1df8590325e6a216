"""End-to-end verification of the two multiplication identities.

Both pipelines compare exact integers: every Euler characteristic comes
from consistency-checked interpolation of prime-field point counts, and the
two sides of each identity are compared per evaluation slot (per ordered
chain type for the symmetric identity, per dimension vector for the
Grassmannian identity with its correction term).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import memo
from .counting import (CountError, _named_sums, count_efg, named_summands,
                       stratify_ext_classes)
from .delta import (all_dim_vectors, convolve, enumerate_flag_types,
                    evaluation_form, stratify_by_signature)
from .euler import euler_of, projective_space_degree_bound, select_primes
from .ext import ext_dim, ext_symmetry_audit
from .modules import (RepModule, composition_series, named_indecomposables,
                      reduce_catalog, reduce_module)


class VerifyError(ValueError):
    pass


class VerificationReport:
    __slots__ = ("formula", "instance", "rows", "strata", "efg",
                 "symmetry_ok", "primes", "details")

    def __init__(self, formula: str, instance: Dict[str, str],
                 rows: Tuple[Tuple[tuple, int, int], ...],
                 strata: Dict[str, Dict[str, int]],
                 efg: Optional[Dict[str, int]], symmetry_ok: bool,
                 primes: Tuple[int, ...],
                 details: Optional[Dict[str, object]] = None):
        self.formula = formula        # "f1" | "f2"
        self.instance = instance
        self.rows = rows              # (slot, lhs, rhs)
        self.strata = strata
        self.efg = efg
        self.symmetry_ok = symmetry_ok
        self.primes = primes          # those of f1's correction term; every
                                      # other table screens its own
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return all(l == r for _, l, r in self.rows)

    def as_dict(self):
        return {
            "formula": self.formula,
            "instance": self.instance,
            "verdict": "pass" if self.passed else "fail",
            "symmetry_audit": "pass" if self.symmetry_ok else "fail",
            "primes": list(self.primes),
            "rows": [{"slot": list(s), "lhs": l, "rhs": r,
                      "equal": l == r} for s, l, r in self.rows],
            "strata": self.strata,
            "efg": self.efg,
            "details": self.details,
        }


@memo.cached(lambda mod, simples: (mod.key(),
                                   tuple(s.key() for s in simples)))
def _has_composition_chain(mod: RepModule,
                           simples: Sequence[RepModule]) -> bool:
    return composition_series(mod, simples) is not None


def _require_members(m: RepModule, n: RepModule,
                     simples: Sequence[RepModule]):
    for lab, mod in (("first module", m), ("second module", n)):
        if mod.total_dim == 0:
            continue
        if not _has_composition_chain(mod, simples):
            raise VerifyError(
                f"{lab} has no composition chain with factors drawn from "
                f"the supplied simple list")


def _advisory_symmetry(m, n, simples, allow_asymmetric: bool) -> bool:
    pairs = [(m, n)]
    for i, a in enumerate(simples):
        for b in simples[i:]:
            pairs.append((a, b))
    report = ext_symmetry_audit(pairs)
    if not report.passed and not allow_asymmetric:
        bad = report.failures()[0]
        raise VerifyError(
            "extension-dimension symmetry fails for the supplied category "
            f"(found dims {bad.dim_mn} vs {bad.dim_nm}); the identities "
            "assume symmetry -- rerun with the asymmetric override to "
            "force the check anyway")
    return report.passed


def _strata_chi(m, n, catalog, primes, direction_label) -> Dict[str, int]:
    """chi of each middle-term stratum of the projectivized extension
    space, per catalog entry of the middle term's dimension vector (zero
    rows included).

    Under a catalog that names its indecomposables, by localisation: the
    torus that scales the named summands M_i of M and N_j of N fixes
    exactly the lines of the blocks P Ext^1(M_i, N_j), and every stratum
    is stable under it, so (Bialynicki-Birula) chi(stratum L) is the sum
    over (i, j) of chi of the lines xi of the block with
    E_xi + (the other summands) isomorphic to L.  The lines of a block
    are matched against the direct sums of named modules
    (``_named_sums``), and each sum to the catalog entry with the same
    ``named_summands``.  Under any other catalog, the lines of the whole
    space are matched against the entries.
    """
    d = tuple(a + b for a, b in zip(m.dims, n.dims))
    entries = {lab: c for lab, c in catalog.items() if c.dims == d}
    chi = dict.fromkeys(entries, 0)
    if not named_indecomposables(catalog):
        chi.update(_line_strata(m, n, entries, primes,
                                f"{direction_label} stratum"))
        return chi
    by_parts: Dict[Tuple[str, ...], str] = {}
    for lab, c in entries.items():
        parts = named_summands(c, catalog, f"catalog entry {lab}")
        if parts in by_parts:
            raise CountError(
                f"catalog entries {by_parts[parts]} and {lab} are both the "
                f"direct sum {'+'.join(parts)} of named indecomposables")
        by_parts[parts] = lab
    named = tuple((lab, catalog[lab]) for lab in catalog.indecomposables)
    order = {lab: k for k, (lab, _) in enumerate(named)}
    first, second = "first module", "second module"
    if direction_label == "backward":
        first, second = second, first
    ms, ns = named_summands(m, catalog, first), named_summands(n, catalog,
                                                               second)
    # equal summands give equal blocks with the same rest: each distinct
    # pair is read once, weighted by its multiplicities
    for x in dict.fromkeys(ms):
        i = ms.index(x)
        for y in dict.fromkeys(ns):
            j = ns.index(y)
            xm, ym = catalog[x], catalog[y]
            if not ext_dim(xm, ym):
                continue
            rest = ms[:i] + ms[i + 1:] + ns[:j] + ns[j + 1:]
            sums = _named_sums(named, tuple(a + b for a, b in
                                            zip(xm.dims, ym.dims)))
            for parts, value in _line_strata(
                    xm, ym, sums, primes,
                    f"stratum of Ext^1({x}, {y})").items():
                lab = by_parts.get(tuple(sorted(parts + rest, key=order.get)))
                if lab is None:
                    raise CountError(
                        f"catalog incomplete: no entry matches a middle "
                        f"term with dimension vector {d}")
                chi[lab] += ms.count(x) * ns.count(y) * value
    return chi


@memo.cached(lambda x, y, targets, primes, label: (
    x.key(), y.key(), tuple((k, t.key()) for k, t in targets.items()),
    tuple(primes) if primes is not None else None))
def _line_strata(x: RepModule, y: RepModule, targets, primes,
                 label: str) -> Dict:
    """chi of each stratum with points of P Ext^1(X, Y), keyed by the
    target that its middle terms match.

    The lines are matched by ``stratify_ext_classes`` against the targets,
    at primes screened for (X, Y) and the targets.  A stratum without
    points at any of the primes is left out."""
    dim = ext_dim(x, y)
    bound = projective_space_degree_bound(dim)
    ps = select_primes(x, y, list(targets.values()), bound + 2, primes)
    if dim and not targets:
        # an empty table is fitted without a count: refuse it here, as
        # stratify_ext_classes refuses a line that no target matches
        d = tuple(a + b for a, b in zip(x.dims, y.dims))
        raise CountError(
            f"catalog incomplete: no entry matches a middle term with "
            f"dimension vector {d}, or an isomorphism test was undecidable")
    seen = set()

    def counter(p, keys):
        counts = stratify_ext_classes(reduce_module(x, p),
                                      reduce_module(y, p),
                                      reduce_catalog(targets, p))
        seen.update(k for k, v in counts.items() if v)
        return counts
    chi = euler_of(label, counter, dict.fromkeys(targets, bound), ps)
    return {k: v.value for k, v in chi.items() if k in seen}


def _details(catalog) -> Dict[str, object]:
    """What a report says about its own run: the path that stratified the
    extension lines with this catalog, and the path that read the
    evaluation forms (``delta.evaluation_form``)."""
    named = bool(named_indecomposables(catalog))
    return {"strata_method": "localised" if named else "isomorphism",
            "chi_method": "convolution" if named else "counted"}


def verify_formula2(m: RepModule, n: RepModule,
                    simples: Sequence[RepModule],
                    catalog: Dict[str, RepModule],
                    primes: Optional[Sequence[int]] = None,
                    allow_asymmetric: bool = False) -> VerificationReport:
    """Symmetric identity: for every ordered chain type of the combined
    dimension vector,

        dim Ext(M, N) * chi(chains of M + N)
          = sum over strata <L> of (chi1 + chi2) * chi(chains of L),

    where chi1, chi2 are the stratum Euler characteristics of the
    projectivized extension spaces in the two directions and strata are
    classes of equal flag signature in the catalog.  Chain Euler
    characteristics are read from flag evaluation forms
    (``delta.evaluation_form``), those of M + N as the convolution of
    the forms of M and N.  Every table fitted screens its own primes, so
    the report lists none.
    """
    _require_members(m, n, simples)
    sym_ok = _advisory_symmetry(m, n, simples, allow_asymmetric)
    d = tuple(a + b for a, b in zip(m.dims, n.dims))
    dim_e, dim_nm = ext_dim(m, n), ext_dim(n, m)

    def chains(mod, label):
        return evaluation_form(mod, "flag", simples, catalog, primes, label)

    chi_mn = _strata_chi(m, n, catalog, primes, "forward") if dim_e else {}
    chi_nm = _strata_chi(n, m, catalog, primes, "backward") \
        if dim_nm else {}
    touched = sorted(set(chi_mn) | set(chi_nm))

    strata_table: Dict[str, Dict[str, int]] = {}
    class_chains = []
    for members in stratify_by_signature(catalog, simples, "flag", primes,
                                         touched):
        c1 = sum(chi_mn.get(lab, 0) for lab in members)
        c2 = sum(chi_nm.get(lab, 0) for lab in members)
        class_chains.append((c1 + c2, chains(catalog[members[0]],
                                             members[0])))
        strata_table[members[0]] = {"forward": c1, "backward": c2,
                                    "members": members}  # type: ignore[dict-item]

    # the left side vanishes with Ext(M, N): skip reading its chains
    lhs_chains = convolve("flag", chains(m, "first module"),
                          chains(n, "second module")) if dim_e else {}
    rows = []
    for jseq in enumerate_flag_types(d, simples):
        lhs = dim_e * lhs_chains.get(jseq, 0)
        rhs = sum(c * ch[jseq] for c, ch in class_chains)
        rows.append((jseq, lhs, rhs))

    return VerificationReport(
        "f2",
        {"algebra": m.algebra.label or "unnamed",
         "dims": str(d), "extension dim": str(dim_e)},
        tuple(rows), strata_table, None, sym_ok, (),
        _details(catalog))


def verify_formula1(m: RepModule, n: RepModule,
                    simples: Sequence[RepModule],
                    catalog: Dict[str, RepModule],
                    primes: Optional[Sequence[int]] = None,
                    allow_asymmetric: bool = False) -> VerificationReport:
    """Grassmannian identity with correction term: for every dimension
    vector e below dims(M) + dims(N),

        dim Ext(M, N) * sum over e1+e2=e of chi(Gr_e1(M)) chi(Gr_e2(N))
          = sum over strata <L> of chi_L * chi(Gr_e(L)) + correction(e),

    with strata grouped by submodule-count signatures and the correction
    counted by the paired-transport fibration, on the named summands of
    M and N under a named catalog (``count_efg``).  Submodule Euler
    characteristics are read from grassmann evaluation forms
    (``delta.evaluation_form``).  The report lists the primes of the
    correction term; every other table fitted screens its own.
    """
    _require_members(m, n, simples)
    sym_ok = _advisory_symmetry(m, n, simples, allow_asymmetric)
    d = tuple(a + b for a, b in zip(m.dims, n.dims))
    dim_e, dim_nm = ext_dim(m, n), ext_dim(n, m)
    # the correction is counted only when Ext(N, M) is nonzero (the named
    # summands are read only then), at primes screened for its parts, up
    # to the degree bound of their submodule varieties and P Ext^1(N, M)
    named = named_indecomposables(catalog)
    n_parts, m_parts = [n], [m]
    if dim_nm and named:
        n_parts, m_parts = ([catalog[lab] for lab in named_summands(
            x, catalog, label)] for x, label in ((n, "second module"),
                                                 (m, "first module")))
    efg_bound = sum(k * k // 4 for x in n_parts + m_parts
                    for k in x.dims) + dim_nm - 1 if dim_nm else 0
    ps = select_primes(m, n, n_parts + m_parts, efg_bound + 2,
                       primes) if dim_nm else []

    def submodules(mod, label):
        return evaluation_form(mod, "grassmann", simples, catalog, primes,
                               label)

    chi_mn = _strata_chi(m, n, catalog, primes, "forward") if dim_e else {}
    class_chi = []
    strata_table: Dict[str, Dict[str, int]] = {}
    for members in stratify_by_signature(catalog, simples, "grassmann",
                                         primes, sorted(chi_mn)):
        c1 = sum(chi_mn.get(lab, 0) for lab in members)
        if c1:
            class_chi.append((c1, submodules(catalog[members[0]],
                                             members[0])))
        strata_table[members[0]] = {"forward": c1, "members": members}  # type: ignore[dict-item]

    # terms weighted by zero are not counted: the left side vanishes with
    # Ext(M, N), a stratum with c1 = 0 adds nothing, and the correction
    # vanishes with Ext(N, M), whose classes it counts
    lhs_gr = convolve("grassmann", submodules(m, "first module"),
                      submodules(n, "second module")) if dim_e else {}
    slots = all_dim_vectors(d)
    efg = euler_of(
        "correction",
        lambda p, keys: count_efg([reduce_module(x, p) for x in n_parts],
                                  [reduce_module(x, p) for x in m_parts]),
        dict.fromkeys(slots, efg_bound), ps) if dim_nm else {}
    rows = []
    efg_table: Dict[str, int] = {}
    for e in slots:
        lhs = dim_e * lhs_gr.get(e, 0)
        efg_table[str(e)] = efg[e].value if dim_nm else 0
        rhs = sum(c1 * gr[e] for c1, gr in class_chi) + efg_table[str(e)]
        rows.append((e, lhs, rhs))

    return VerificationReport(
        "f1",
        {"algebra": m.algebra.label or "unnamed",
         "dims": str(d), "extension dim": str(dim_e)},
        tuple(rows), strata_table, efg_table, sym_ok, tuple(ps),
        {**_details(catalog),
         "correction_method": "localised" if named else "counted"})


# ---------------------------------------------------------------------------
# Built-in audit suite


class AuditSummary:
    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[str, str], ...]):
        self.entries = entries        # (name, "pass"/"fail"/detail)

    @property
    def passed(self) -> bool:
        return all(v == "pass" for _, v in self.entries)

    def as_dict(self):
        return {"verdict": "pass" if self.passed else "fail",
                "entries": [{"name": k, "result": v}
                            for k, v in self.entries]}


AUDIT_INSTANCES = ("I", "II", "III", "IV")


def run_audit_suite(which: Sequence[str] = AUDIT_INSTANCES) -> AuditSummary:
    """Dimension-level symmetry audits and identity spot-checks over the
    built-in instances.  Names outside I, II, III, IV and an empty
    selection are refused: either would otherwise run nothing and pass."""
    known = ", ".join(AUDIT_INSTANCES)
    unknown = [w for w in which if w not in AUDIT_INSTANCES]
    if unknown:
        raise VerifyError("unknown audit instances: "
                          + ", ".join(repr(w) for w in unknown)
                          + f"; the built-in ones are {known}")
    if not which:
        raise VerifyError(
            f"no audit instances selected; the built-in ones are {known}")
    from . import instances as inst
    from .delta import check_delta_multiplicativity
    entries: List[Tuple[str, str]] = []

    if "I" in which:
        alg = inst.a2_preprojective()
        mods = inst.a2_modules(alg)
        simples = [mods["S1"], mods["S2"]]
        pairs = [(a, b) for a in mods.values() for b in mods.values()]
        rep = ext_symmetry_audit(pairs)
        entries.append(("doubled-arrow symmetry audit",
                        "pass" if rep.passed else "fail"))
        mult = check_delta_multiplicativity(mods["S1"], mods["S2"], simples)
        entries.append(("doubled-arrow multiplicativity S1,S2",
                        "pass" if mult.passed else "fail"))
        cat = inst.a2_catalog(alg)
        r2 = verify_formula2(mods["S1"], mods["S2"], simples, cat)
        entries.append(("doubled-arrow identity-2 S1,S2",
                        "pass" if r2.passed else "fail"))
        r1 = verify_formula1(mods["S1"], mods["S2"], simples, cat)
        entries.append(("doubled-arrow identity-1 S1,S2",
                        "pass" if r1.passed else "fail"))

    if "II" in which:
        alg2, mods2 = inst.two_loop_modules()
        names = list(mods2)
        pairs = [(mods2[a], mods2[b]) for a in names for b in names]
        rep = ext_symmetry_audit(pairs)
        entries.append(("two-loop symmetry audit",
                        "pass" if rep.passed else "fail"))

    if "III" in which:
        algd = inst.deformed_a2()
        from fractions import Fraction
        ms = [inst.deformed_a2_module(Fraction(k)) for k in (1, 2, 3)]
        pairs = [(a, b) for a in ms for b in ms]
        rep = ext_symmetry_audit(pairs)
        entries.append(("deformed doubled-arrow symmetry audit",
                        "pass" if rep.passed else "fail"))

    if "IV" in which:
        alg3 = inst.three_vertex_algebra()
        s = inst.three_vertex_simples(alg3)
        full = ext_symmetry_audit([(s["S1"], s["S2"])])
        entries.append(("three-vertex full set is asymmetric",
                        "pass" if not full.passed else "fail"))
        for a, b in (("S1", "S3"), ("S2", "S3")):
            rep = ext_symmetry_audit(
                [(s[a], s[a]), (s[a], s[b]), (s[b], s[b])])
            entries.append((f"three-vertex restricted set {{{a},{b}}}",
                            "pass" if rep.passed else "fail"))

    return AuditSummary(tuple(entries))
