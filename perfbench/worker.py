"""One benchmark process: runs items against the library in ``src/``.

Usage (the job arrives as JSON on standard input, the result leaves as the
last line of standard output):

    python3 perfbench/worker.py probe <workload> <files dir>
    python3 perfbench/worker.py sweep      # {"pairs", "trace"}
    python3 perfbench/worker.py pair       # {"pair", "which", "item", "trace"}
    python3 perfbench/worker.py cli        # {"args", "item", "trace"}

``probe`` is one set-up sample: import and instance construction, then a
"ready" line (for ``cli`` it also writes the input files).  ``trace`` is
a path for the span file, or null for an untraced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

CATALOG_MAX = {"sweep4": 4, "pairs5": 5, "cli": 3}
SUMS_MAX = {"sweep4": 3, "pairs5": 4, "cli": 3}


def build(workload: str):
    from extsym.instances import (a2_catalog, a2_modules, a2_preprojective,
                                  a2_sums)
    alg = a2_preprojective()
    mods = a2_modules(alg)
    sums = a2_sums(alg, SUMS_MAX[workload])
    cat = a2_catalog(alg, CATALOG_MAX[workload])
    return alg, [mods["S1"], mods["S2"]], sums, cat


def write_cli_files(alg, sums, files_dir: str) -> None:
    from extsym.fileio import algebra_to_dict, catalog_to_dict, module_to_dict
    from extsym.instances import a2_catalog
    os.makedirs(files_dir, exist_ok=True)
    docs = {"alg.json": algebra_to_dict(alg)}
    for cap in (2, 3):
        docs[f"cat{cap}.json"] = catalog_to_dict(a2_catalog(alg, cap))
    for lab, m in sums.items():
        docs[f"{lab}.json"] = module_to_dict(m)
    for name, doc in docs.items():
        with open(os.path.join(files_dir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _report(rep) -> dict:
    return {"rows": [[list(s), lhs, rhs] for s, lhs, rhs in rep.rows],
            "strata": {k: {d: v[d] for d in ("forward", "backward")
                           if d in v}
                       for k, v in rep.strata.items()}}


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed item
        return {"t": time.perf_counter() - t0,
                "error": f"{type(exc).__name__}: {exc}"}
    return {"t": time.perf_counter() - t0, **out}


def _tracer(job):
    if not job.get("trace"):
        return None
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish(result: dict, tracer, job) -> None:
    if tracer is not None:
        tracer.dump(job["trace"])
        result["trace"] = tracer.summary()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


def run_sweep(job) -> None:
    """Every pair in order in this one process, caches warm across pairs."""
    _, simples, sums, cat = build("sweep4")
    tracer = _tracer(job)
    from extsym.delta import check_delta_multiplicativity
    from extsym.verify import verify_formula1, verify_formula2

    def mult(m, n):
        rep = check_delta_multiplicativity(m, n, simples)
        return {"rows": [[list(t), a, b] for t, a, b in rep.per_type]}

    items = []
    for k, (a, b) in enumerate(job["pairs"]):
        if tracer is not None:
            tracer.item[0] = k
        m, n = sums[a], sums[b]
        items.append({
            "pair": [a, b],
            "f2": _timed(lambda: _report(verify_formula2(m, n, simples,
                                                         cat))),
            "f1": _timed(lambda: _report(verify_formula1(m, n, simples,
                                                         cat))),
            "delta": _timed(mult, m, n)})
    _finish({"items": items}, tracer, job)


def run_pair(job) -> None:
    """One identity on one pair, in a fresh process so caches start cold."""
    _, simples, sums, cat = build("pairs5")
    tracer = _tracer(job)
    from extsym.verify import verify_formula1, verify_formula2
    fn = verify_formula2 if job["which"] == "f2" else verify_formula1
    a, b = job["pair"]
    if tracer is not None:
        tracer.item[0] = job.get("item", 0)
    out = _timed(lambda: _report(fn(sums[a], sums[b], simples, cat)))
    _finish(out, tracer, job)


def run_cli(job) -> None:
    """One command in-process, traced: the import, then the command span."""
    t0 = time.perf_counter()
    import extsym.cli
    import_s = time.perf_counter() - t0
    tracer = _tracer(job)
    tracer.item[0] = job.get("item", 0)
    buf = io.StringIO()
    frame = tracer.open("cli.command")
    try:
        with contextlib.redirect_stdout(buf):
            extsym.cli.main.main(args=job["args"], prog_name="extsym",
                                 standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.close(frame)
    _finish({"import_s": import_s, "t": time.perf_counter() - t0,
             "exit": code, "stdout": buf.getvalue()}, tracer, job)


def main(argv) -> int:
    mode = argv[1]
    if mode == "probe":
        workload, files_dir = argv[2], argv[3]
        alg, _, sums, _ = build(workload)
        if workload == "cli":
            import extsym.cli  # noqa: F401
            write_cli_files(alg, sums, files_dir)
        print("ready", flush=True)
        return 0
    job = json.loads(sys.stdin.read())
    {"sweep": run_sweep, "pair": run_pair, "cli": run_cli}[mode](job)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
