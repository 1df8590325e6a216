"""extsym benchmark: one command for every workload.

    python3 perfbench/run.py --workload sweep4|pairs5|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree (the library is imported from
``src/``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace
0`` the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced round (see README.md).

Every item's output is checked against ``closed_forms``, which is made
without the library.  A wrong answer counts the item as failed and makes
``correct`` false; an item that raises or exits non-zero counts as failed.
At most one child process runs at a time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import closed_forms as cf  # noqa: E402
from tracing import COUNTS, span_names  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench")
FILES = os.path.join(OUT, "files")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9
# After this many seconds from start a running child is killed, and no
# round starts that the mean round length says would end later.
DEADLINE_S = 170.0
PAIRS5_DRAW_SEED = 2008
PAIRS5_DRAW = 2

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
           PYTHONHASHSEED="0")


# ---------------------------------------------------------------------------
# Inputs


def sum_labels(max_total: int):
    """Labels of ``instances.a2_sums(alg, max_total)``, in its order."""
    out = []
    for r in range(1, max_total + 1):
        for combo in itertools.combinations_with_replacement(
                ["S1", "S2", "P1", "P2"], r):
            lab = "+".join(combo)
            if sum(cf.dims(lab)) <= max_total:
                out.append(lab)
    return out


def sweep4_pairs():
    """The 81 pairs of combined dimension <= 4, in the order of the
    acceptance sweep."""
    labs = sum_labels(3)
    return [(a, b) for a in labs for b in labs
            if sum(cf.dims(a)) + sum(cf.dims(b)) <= 4]


def pairs5_population():
    """Pairs of combined dimension vector (3, 2) or (2, 3) with
    dim Ext^1(M, N) <= 3."""
    labs = sum_labels(4)
    out = []
    for a in labs:
        for b in labs:
            d = tuple(x + y for x, y in zip(cf.dims(a), cf.dims(b)))
            if d in ((3, 2), (2, 3)) and cf.ext(a, b) <= 3:
                out.append((a, b))
    return out


def pairs5_pairs():
    """A fixed draw: one pair with Ext^1(M, N) = 0 and the rest with
    Ext^1(M, N) > 0, so each round sees both regimes of the flag pipeline."""
    rng = random.Random(PAIRS5_DRAW_SEED)
    pop = pairs5_population()
    zero = [p for p in pop if cf.ext(*p) == 0]
    some = [p for p in pop if cf.ext(*p) > 0]
    return [rng.choice(zero)] + rng.sample(some, PAIRS5_DRAW - 1)


def cli_commands():
    """(argv after ``extsym``, checker) for each command of a round.

    ``verify f1`` and ``verify f2`` run on two pairs (mirror images under
    the swap of the two vertices): one process of them varies by about 25%
    from round to round on the reference machine, so their medians need
    the samples."""
    def f(name):
        return os.path.join(FILES, name)

    alg = ["--algebra", f("alg.json")]
    simples = ["--simples", "vertex:1,vertex:2"]
    cat = ["--catalog", f("cat3.json")]

    def verdict(out):
        return [] if out.get("verdict") == "pass" else [f"verdict {out}"]

    def ext_dims(out):
        want = {"dim_ext_mn": cf.ext("S1+P2", "S2"),
                "dim_ext_nm": cf.ext("S2", "S1+P2")}
        return [] if out == want else [f"ext dims {out} != {want}"]

    def gr_chi(out):
        want = cf.grassmannian_chi("S1+P1")[(1, 1)]
        return [] if out.get("chi") == want else [f"chi {out.get('chi')}"]

    def fl_chi(out):
        want = cf.flag_chi("S1+P2")[(1, 0, 0)]
        return [] if out.get("chi") == want else [f"chi {out.get('chi')}"]

    def delta(out):
        got = {tuple(r["type"]): r["value"] for r in out["table"]}
        want = cf.flag_chi("S2+P1")
        return [] if got == want else [f"delta {got} != {want}"]

    def stratify(out):
        want = cf.signature_classes(sum_labels(3))
        return [] if out.get("classes") == want else [f"classes {out}"]

    def verify(which, m, n):
        check = cf.check_f1 if which == "f1" else cf.check_f2

        def run(out):
            rows = [(r["slot"], r["lhs"], r["rhs"]) for r in out["rows"]]
            return verdict(out) + check(m, n, rows, out["strata"])
        args = ["verify", which] + alg + ["--module", f(f"{m}.json"),
                                          "--module", f(f"{n}.json")]
        return args + cat + simples, run

    return [
        (["audit"], verdict),
        (["selftest"], verdict),
        (["algebra", "check"] + alg, verdict),
        (["ext", "dim"] + alg + ["--module", f("S1+P2.json"), "--module",
                                 f("S2.json")], ext_dims),
        (["grassmann", "chi"] + alg + ["--module", f("S1+P1.json"),
                                       "--dims", "1,1"], gr_chi),
        (["flag", "chi"] + alg + ["--module", f("S1+P2.json")] + simples
         + ["--type", "1,0,0"], fl_chi),
        (["delta"] + alg + ["--module", f("S2+P1.json")] + simples, delta),
        (["stratify"] + alg + cat + simples, stratify),
    ] + [verify(which, m, "S1+S2") for which in ("f1", "f2")
         for m in ("S1", "S2")]


# ---------------------------------------------------------------------------
# Child processes


class Child:
    """Result of one child process: exit code, output, wall time from
    spawn (and to its first output line), peak RSS."""

    def __init__(self, code, out, wall, first_line_s, maxrss_kb):
        self.code, self.out, self.wall = code, out, wall
        self.first_line_s, self.maxrss_kb = first_line_s, maxrss_kb

    def last_json(self):
        lines = [ln for ln in self.out.splitlines() if ln.strip()]
        return json.loads(lines[-1]) if lines else None


def run_child(cmd, job, deadline) -> Child:
    """Run one process to its end and reap it with ``wait4`` for its
    resource usage.  It is killed at ``deadline`` (perf_counter time)."""
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "child.err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stderr=err,
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        reaped = False
        try:
            try:
                proc.stdin.write(json.dumps(job).encode() if job else b"")
                proc.stdin.close()
            except BrokenPipeError:
                pass                        # the child's exit code tells
            first = proc.stdout.readline()
            first_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, (first + rest).decode(), wall, first_s,
                 usage.ru_maxrss)


def setup_samples(workload: str, n: int, deadline):
    """Set-up time of ``n`` fresh interpreters after one unmeasured warm-up
    (the warm-up also writes byte code, and the cli input files)."""
    cmd = [sys.executable, WORKER, "probe", workload, FILES]
    out = []
    for k in range(n + 1):
        child = run_child(cmd, None, deadline)
        if child.code != 0 or not child.out.startswith("ready"):
            raise RuntimeError(f"set-up probe failed:\n{child.out}")
        if k:
            out.append(child.first_line_s)
    return out


# ---------------------------------------------------------------------------
# Rounds.  Each returns its items,
#   {"t": seconds, "f2" or "f1": seconds, "bad": [mismatches],
#    "error": str or None, "label": str},
# the peak RSS of its processes and, when traced, the trace summaries.


class Round:
    def __init__(self):
        self.items = []
        self.maxrss_kb = 0
        self.traces = []
        self.import_s = []


def _error_of(child: Child, res):
    if child.code != 0 or res is None:
        return f"exit {child.code}: {child.out[-300:]}"
    return None


def sweep4_round(seed, deadline, trace_dir=None) -> Round:
    """One worker runs the fixed pairs in order; the seed is not used."""
    rnd = Round()
    pairs = sweep4_pairs()
    trace = os.path.join(trace_dir, "item-all.spans") if trace_dir else None
    child = run_child([sys.executable, WORKER, "sweep"],
                      {"pairs": pairs, "trace": trace}, deadline)
    res = child.last_json() if child.code == 0 else None
    rnd.maxrss_kb = child.maxrss_kb
    err = _error_of(child, res)
    results = res["items"] if res else [None] * len(pairs)
    for (a, b), it in zip(pairs, results):
        if it is None:
            rnd.items.append({"t": math.nan, "error": err, "bad": [],
                              "label": f"{a} / {b}"})
            continue
        bad, errors = [], []
        for kind in ("f2", "f1", "delta"):
            if "error" in it[kind]:
                errors.append(f"{kind}: {it[kind]['error']}")
        if not errors:
            bad += cf.check_f2(a, b, it["f2"]["rows"], it["f2"]["strata"])
            bad += cf.check_f1(a, b, it["f1"]["rows"], it["f1"]["strata"])
            bad += cf.check_multiplicativity(a, b, it["delta"]["rows"])
        rnd.items.append({
            "t": it["f2"]["t"] + it["f1"]["t"] + it["delta"]["t"],
            "f2": it["f2"]["t"], "f1": it["f1"]["t"], "bad": bad,
            "error": "; ".join(errors) or None, "label": f"{a} / {b}"})
    if res and "trace" in res:
        rnd.traces.append(res["trace"])
    return rnd


def pairs5_round(seed, deadline, trace_dir=None) -> Round:
    """One fresh worker per (pair, identity), in an order the seed
    shuffles."""
    rnd = Round()
    items = [(p, w) for p in pairs5_pairs() for w in ("f2", "f1")]
    random.Random(seed).shuffle(items)
    check = {"f2": cf.check_f2, "f1": cf.check_f1}
    for k, ((a, b), which) in enumerate(items):
        trace = os.path.join(trace_dir, f"item-{k}.spans") \
            if trace_dir else None
        child = run_child([sys.executable, WORKER, "pair"],
                          {"pair": [a, b], "which": which, "trace": trace,
                           "item": k}, deadline)
        res = child.last_json() if child.code == 0 else None
        rnd.maxrss_kb = max(rnd.maxrss_kb, child.maxrss_kb)
        err = _error_of(child, res) or (res.get("error") if res else None)
        bad = [] if err else check[which](a, b, res["rows"], res["strata"])
        rnd.items.append({"t": res["t"] if res else math.nan, which:
                          res["t"] if res else math.nan, "bad": bad,
                          "error": err, "label": f"{which} {a} / {b}"})
        if res and "trace" in res:
            rnd.traces.append(res["trace"])
    return rnd


def cli_round(seed, deadline, trace_dir=None) -> Round:
    """One fresh process per command, in an order the seed shuffles; when
    traced, each command runs in-process in a fresh traced worker."""
    rnd = Round()
    commands = cli_commands()
    random.Random(seed).shuffle(commands)
    for k, (args, checker) in enumerate(commands):
        args = args + ["--json"]
        if trace_dir:
            child = run_child(
                [sys.executable, WORKER, "cli"],
                {"args": args, "item": k,
                 "trace": os.path.join(trace_dir, f"item-{k}.spans")},
                deadline)
            res = child.last_json() if child.code == 0 else None
            code = res["exit"] if res else child.code
            stdout = res["stdout"] if res else ""
            if res:
                rnd.traces.append(res["trace"])
                rnd.import_s.append(res["import_s"])
        else:
            child = run_child([sys.executable, "-m", "extsym.cli"] + args,
                              None, deadline)
            code, stdout = child.code, child.out
        rnd.maxrss_kb = max(rnd.maxrss_kb, child.maxrss_kb)
        err, bad = None, []
        try:
            out = json.loads(stdout)
        except ValueError:
            out = None
        if code != 0 or out is None:
            err = f"exit {code}: {stdout[-300:]}"
        else:
            try:
                bad = checker(out)
            except (KeyError, TypeError) as exc:
                bad = [f"malformed output: {exc!r}"]
        kind = args[1] if args[0] == "verify" else "cmd"
        label = " ".join(a for a in args[:2] if not a.startswith("--"))
        rnd.items.append({"t": child.wall, kind: child.wall, "bad": bad,
                          "error": err, "label": label})
    return rnd


ROUNDS = {"sweep4": sweep4_round, "pairs5": pairs5_round, "cli": cli_round}


# ---------------------------------------------------------------------------
# Metrics


def percentile(values, q):
    """Nearest rank: the smallest value with at least q of them at or
    below it."""
    vals = sorted(values)
    return vals[max(math.ceil(q * len(vals)) - 1, 0)]


def tally(items):
    failed = [it for it in items if it["error"] or it["bad"]]
    for it in failed:
        print(f"FAILED {it.get('label', '')}: "
              f"{it['error'] or '; '.join(it['bad'][:3])}")
    correct = not any(it["bad"] for it in items)
    return correct, len(items), len(failed)


def end_to_end(workload, seed, seconds, deadline):
    setup = setup_samples(workload, SETUP_SAMPLES, deadline)
    start = time.perf_counter()
    items, maxrss, rounds = [], 0, 0
    while True:
        rnd = ROUNDS[workload](seed, deadline)
        items += rnd.items
        maxrss = max(maxrss, rnd.maxrss_kb)
        rounds += 1
        now = time.perf_counter()
        mean_round = (now - start) / rounds
        # stop at the whole number of rounds nearest to the run length
        if now - start + mean_round / 2 >= seconds \
                or now + mean_round > deadline:
            break
    wall = time.perf_counter() - start
    correct, attempted, failed = tally(items)
    ok = [it for it in items if not (it["error"] or it["bad"])]
    if not ok:
        raise RuntimeError("every item failed")

    def med(kind):
        # over the items that passed; over all timed items if none did
        for pool in (ok, items):
            vals = [it[kind] for it in pool
                    if kind in it and not math.isnan(it[kind])]
            if vals:
                return statistics.median(vals)
        return None

    times = [it["t"] for it in ok]
    metrics = {
        "items_per_s": (len(ok) / wall, "1/s"),
        "item_s.p50": (statistics.median(times), "s"),
        "item_s.p87": (percentile(times, 0.87), "s"),
        "f2_s.p50": (med("f2"), "s"),
        "f1_s.p50": (med("f1"), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (maxrss / 1024.0, "MB"),
    }
    return correct, attempted, failed, metrics


def traced(workload, seed, deadline):
    """One untraced round, then the same round traced."""
    if workload == "cli":
        setup_samples(workload, 0, deadline)    # writes the input files
    t0 = time.perf_counter()
    ROUNDS[workload](seed, deadline)
    plain = time.perf_counter() - t0
    trace_dir = os.path.join(OUT, "trace", workload)
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    t0 = time.perf_counter()
    rnd = ROUNDS[workload](seed, deadline, trace_dir)
    traced_s = time.perf_counter() - t0
    correct, attempted, failed = tally(rnd.items)

    names = span_names()
    calls = {n: 0 for n in names}
    self_s = {n: 0.0 for n in names}
    counts = {c: 0 for c in COUNTS}
    absent, spans = set(), 0
    for tr in rnd.traces:
        for n in names:
            calls[n] += tr["calls"][n]
            self_s[n] += tr["self_s"][n]
        for c in COUNTS:
            counts[c] += tr["counts"][c]
        absent.update(tr["absent"])
        spans += tr["spans"]
    for name in sorted(absent):
        print(f"absent: {name}")
    metrics = {}
    for n in names:
        metrics[f"{n}.calls"] = (calls[n], "count")
        metrics[f"{n}.self_s"] = (self_s[n], "s")
    for c in COUNTS:
        metrics[c] = (counts[c], "count")
    cand = counts["counting.submodule_candidates"]
    metrics["counting.submodule_yield"] = (
        counts["counting.submodules"] / cand if cand else 0.0, "ratio")
    metrics["cli.import_s"] = (
        statistics.median(rnd.import_s) if rnd.import_s else 0.0, "s")
    metrics["trace.spans"] = (spans, "count")
    metrics["trace.overhead"] = (traced_s / plain, "ratio")
    with open(os.path.join(trace_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"absent": sorted(absent), "plain_s": plain,
                   "traced_s": traced_s,
                   "metrics": {k: v for k, (v, _) in metrics.items()}},
                  fh, indent=1)
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    # on SIGTERM, unwind so that run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "extsym",
                                        "__init__.py")):
        print(f"no extsym source tree under {ROOT}/src", file=sys.stderr)
        return 2
    if args.trace:
        correct, attempted, failed, metrics = traced(
            args.workload, args.seed, deadline)
    else:
        correct, attempted, failed, metrics = end_to_end(
            args.workload, args.seed, args.seconds, deadline)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
