"""Command-line interface.

Exit status is 0 exactly when the requested check passes (or the requested
computation succeeds), nonzero otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

import click

from .algebra import AlgebraError, validate_presentation
from .counting import CountError
from .delta import DeltaError, delta_signature, slot_value, \
    stratify_by_signature
from .euler import EulerError
from .ext import ext_dim
from .fields import RATIONALS, FieldError
from .fileio import FormatError, load_algebra, load_catalog, load_module
from .modules import ModuleError, UndecidableError, simple_at_vertex
from .verify import VerifyError, run_audit_suite, verify_formula1, \
    verify_formula2

_ERRORS = (AlgebraError, ModuleError, CountError, DeltaError, EulerError,
           VerifyError, FormatError, FieldError, UndecidableError, OSError,
           json.JSONDecodeError)


def _fail(msg: str, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps({"verdict": "error", "message": msg}))
    else:
        click.echo(f"error: {msg}", err=True)
    sys.exit(1)


def _emit(payload: dict, as_json: bool, text: str) -> None:
    click.echo(json.dumps(payload, indent=2) if as_json else text)


def _parse_int_list(s: Optional[str]) -> Optional[List[int]]:
    if s is None:
        return None
    try:
        return [int(x) for x in s.split(",")]
    except ValueError:
        raise click.BadParameter(f"not a comma-separated integer list: {s}")


def _load(algebra_file, module_files=(), catalog_file=None,
          simples_arg=None):
    alg = load_algebra(algebra_file)
    mods = [load_module(f, alg) for f in module_files]
    catalog = load_catalog(catalog_file, alg) if catalog_file else {}
    simples = None
    if simples_arg is not None:
        simples = []
        for token in simples_arg.split(","):
            token = token.strip()
            if token.startswith("vertex:"):
                simples.append(simple_at_vertex(alg, RATIONALS,
                                                token[len("vertex:"):]))
            elif token in catalog:
                simples.append(catalog[token])
            else:
                raise FormatError(
                    f"simple {token!r} is neither 'vertex:v' nor a catalog "
                    f"label")
    return alg, mods, catalog, simples


algebra_opt = click.option("--algebra", "algebra_file", required=True,
                           type=click.Path(exists=True, dir_okay=False))
module_opt = click.option("--module", "module_files", multiple=True,
                          type=click.Path(exists=True, dir_okay=False))
catalog_opt = click.option("--catalog", "catalog_file",
                           type=click.Path(exists=True, dir_okay=False))
simples_opt = click.option("--simples", "simples_arg",
                           help="comma list of catalog labels or vertex:v")
primes_opt = click.option("--primes", "primes_arg",
                          help="comma list of primes to use (screened)")
json_opt = click.option("--json", "as_json", is_flag=True)
asym_opt = click.option("--allow-asymmetric", is_flag=True)


@click.group()
def main():
    """Exact extension-space calculus and identity verification for quiver
    algebras with relations."""


@main.group()
def algebra():
    """Algebra-presentation commands."""


@algebra.command("check")
@algebra_opt
@json_opt
def algebra_check(algebra_file, as_json):
    """Validate an algebra definition file."""
    try:
        alg = load_algebra(algebra_file)
        validate_presentation(alg.quiver, alg.relations)
    except _ERRORS as exc:
        _fail(str(exc), as_json)
    _emit({"verdict": "pass", "label": alg.label,
           "vertices": list(alg.quiver.vertices),
           "arrows": [a.name for a in alg.quiver.arrows],
           "relations": len(alg.relations)},
          as_json, f"ok: {len(alg.quiver.vertices)} vertices, "
          f"{len(alg.quiver.arrows)} arrows, "
          f"{len(alg.relations)} relations")


@main.group()
def ext():
    """Extension-space commands."""


@ext.command("dim")
@algebra_opt
@module_opt
@json_opt
def ext_dim_cmd(algebra_file, module_files, as_json):
    """dim Ext^1(M, N) for two module files (M first)."""
    if len(module_files) != 2:
        _fail("ext dim needs exactly two --module files", as_json)
    try:
        _, (m, n), _, _ = _load(algebra_file, module_files)
        d_mn, d_nm = ext_dim(m, n), ext_dim(n, m)
    except _ERRORS as exc:
        _fail(str(exc), as_json)
    _emit({"dim_ext_mn": d_mn, "dim_ext_nm": d_nm},
          as_json, f"dim Ext^1(M,N) = {d_mn}\ndim Ext^1(N,M) = {d_nm}")


@main.group()
def grassmann():
    """Submodule-variety commands."""


@grassmann.command("chi")
@algebra_opt
@module_opt
@click.option("--dims", "edims", required=True,
              help="comma dimension vector, vertex order")
@primes_opt
@json_opt
def grassmann_chi(algebra_file, module_files, edims, primes_arg, as_json):
    """Euler characteristic of the submodule variety at one dim vector."""
    if len(module_files) != 1:
        _fail("grassmann chi needs exactly one --module", as_json)
    try:
        _, (m,), _, _ = _load(algebra_file, module_files)
        ev = slot_value(m, "grassmann", _parse_int_list(edims),
                        primes=_parse_int_list(primes_arg))
    except _ERRORS as exc:
        _fail(str(exc), as_json)
    _emit({"chi": ev.value, **ev.as_dict()}, as_json, f"chi = {ev.value}")


@main.group()
def flag():
    """Flag-variety commands."""


@flag.command("chi")
@algebra_opt
@module_opt
@catalog_opt
@simples_opt
@click.option("--type", "type_arg", required=True,
              help="comma list of 0-based simple indices, top first")
@primes_opt
@json_opt
def flag_chi(algebra_file, module_files, catalog_file, simples_arg,
             type_arg, primes_arg, as_json):
    """Euler characteristic of the chain variety for one ordered type."""
    if len(module_files) != 1:
        _fail("flag chi needs exactly one --module", as_json)
    try:
        _, (m,), catalog, simples = _load(algebra_file, module_files,
                                          catalog_file, simples_arg)
        if not simples:
            _fail("flag chi needs --simples", as_json)
        ev = slot_value(m, "flag", _parse_int_list(type_arg), simples,
                        _parse_int_list(primes_arg))
    except _ERRORS as exc:
        _fail(str(exc), as_json)
    _emit({"chi": ev.value, **ev.as_dict()}, as_json, f"chi = {ev.value}")


@main.command("delta")
@algebra_opt
@module_opt
@catalog_opt
@simples_opt
@click.option("--mode", type=click.Choice(["flag", "grassmann"]),
              default="flag")
@primes_opt
@json_opt
def delta_cmd(algebra_file, module_files, catalog_file, simples_arg, mode,
              primes_arg, as_json):
    """Evaluation-form signature of a module."""
    if len(module_files) != 1:
        _fail("delta needs exactly one --module", as_json)
    try:
        _, (m,), catalog, simples = _load(algebra_file, module_files,
                                          catalog_file, simples_arg)
        if mode == "flag" and not simples:
            _fail("flag mode needs --simples", as_json)
        sig = delta_signature(m, mode, simples or [],
                              primes=_parse_int_list(primes_arg))
    except _ERRORS as exc:
        _fail(str(exc), as_json)
    vals = sig.values()
    _emit(sig.as_dict(), as_json,
          "\n".join(f"{k}: {v}" for k, v in sorted(vals.items())))


@main.command("stratify")
@algebra_opt
@catalog_opt
@simples_opt
@click.option("--mode", type=click.Choice(["flag", "grassmann"]),
              default="flag")
@primes_opt
@json_opt
def stratify_cmd(algebra_file, catalog_file, simples_arg, mode, primes_arg,
                 as_json):
    """Partition a catalog into classes of equal signature."""
    try:
        _, _, catalog, simples = _load(algebra_file, (), catalog_file,
                                       simples_arg)
        if not catalog:
            _fail("stratify needs --catalog", as_json)
        if mode == "flag" and not simples:
            _fail("flag mode needs --simples", as_json)
        classes = stratify_by_signature(catalog, simples or [], mode,
                                        primes=_parse_int_list(primes_arg))
    except _ERRORS as exc:
        _fail(str(exc), as_json)
    _emit({"classes": classes}, as_json,
          "\n".join(" ".join(group) for group in classes))


@main.command("audit")
@click.option("--instances", default="I,II,III,IV",
              help="comma subset of the built-in instance suite")
@json_opt
def audit_cmd(instances, as_json):
    """Run the built-in symmetry and identity audit suite."""
    try:
        summary = run_audit_suite(tuple(x.strip()
                                        for x in instances.split(",")))
    except _ERRORS as exc:
        _fail(str(exc), as_json)
    text = "\n".join(f"{v:5s} {k}" for k, v in summary.entries)
    _emit(summary.as_dict(), as_json,
          text + ("\nall pass" if summary.passed else "\nFAILURES"))
    sys.exit(0 if summary.passed else 1)


@main.group()
def verify():
    """Identity verification pipelines."""


def _verify_common(algebra_file, module_files, catalog_file, simples_arg,
                   primes_arg, as_json, allow_asymmetric, which):
    if len(module_files) != 2:
        _fail(f"verify {which} needs exactly two --module files", as_json)
    try:
        _, (m, n), catalog, simples = _load(algebra_file, module_files,
                                            catalog_file, simples_arg)
        if not catalog:
            _fail("verification needs --catalog", as_json)
        if not simples:
            _fail("verification needs --simples", as_json)
        fn = verify_formula1 if which == "f1" else verify_formula2
        report = fn(m, n, simples, catalog,
                    primes=_parse_int_list(primes_arg),
                    allow_asymmetric=allow_asymmetric)
    except _ERRORS as exc:
        _fail(str(exc), as_json)
    text_rows = "\n".join(f"{'ok ' if l == r else 'BAD'} slot {s}: "
                          f"{l} = {r}" for s, l, r in report.rows)
    _emit(report.as_dict(), as_json,
          text_rows + f"\nverdict: {'pass' if report.passed else 'fail'}")
    sys.exit(0 if report.passed else 1)


@verify.command("f1")
@algebra_opt
@module_opt
@catalog_opt
@simples_opt
@primes_opt
@json_opt
@asym_opt
def verify_f1(algebra_file, module_files, catalog_file, simples_arg,
              primes_arg, as_json, allow_asymmetric):
    """Grassmannian identity with correction term."""
    _verify_common(algebra_file, module_files, catalog_file, simples_arg,
                   primes_arg, as_json, allow_asymmetric, "f1")


@verify.command("f2")
@algebra_opt
@module_opt
@catalog_opt
@simples_opt
@primes_opt
@json_opt
@asym_opt
def verify_f2(algebra_file, module_files, catalog_file, simples_arg,
              primes_arg, as_json, allow_asymmetric):
    """Symmetric chain-type identity."""
    _verify_common(algebra_file, module_files, catalog_file, simples_arg,
                   primes_arg, as_json, allow_asymmetric, "f2")


@main.command("selftest")
@json_opt
def selftest(as_json):
    """Quick internal sanity run (interpolation, ext dims, one identity)."""
    from .euler import euler_of
    from . import instances as inst
    results = []
    try:
        line = euler_of("projective line", lambda q, keys: {"points": q + 1},
                        {"points": 1}, (2, 3, 5))["points"]
        results.append(("projective line chi = 2", line.value == 2))
        alg = inst.a2_preprojective()
        mods = inst.a2_modules(alg)
        results.append(("ext dims doubled arrow",
                        ext_dim(mods["S1"], mods["S2"]) == 1
                        and ext_dim(mods["P1"], mods["P1"]) == 0))
        rep = verify_formula2(mods["S1"], mods["S2"],
                              [mods["S1"], mods["S2"]],
                              inst.a2_catalog(alg, 2))
        results.append(("symmetric identity on base pair", rep.passed))
    except _ERRORS as exc:
        _fail(str(exc), as_json)
    ok = all(v for _, v in results)
    _emit({"verdict": "pass" if ok else "fail",
           "checks": [{"name": k, "ok": v} for k, v in results]},
          as_json,
          "\n".join(f"{'ok ' if v else 'BAD'} {k}" for k, v in results))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
