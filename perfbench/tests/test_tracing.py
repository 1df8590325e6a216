"""The traced run: exact counts, consistent self times, absent functions.

Run:  python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402

PAIRS = [["S1", "S2"], ["S1", "S1+S2"], ["P1", "S1+S2"]]
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
           PYTHONHASHSEED="0")


def traced_sweep(tmp_path, name):
    spans = str(tmp_path / f"{name}.spans")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "sweep"],
        input=json.dumps({"pairs": PAIRS, "trace": spans}),
        capture_output=True, text=True, env=ENV, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1]), spans


def own_self_times(cols):
    """Self time of every span from the span file: its duration minus the
    union of its children's intervals."""
    n = len(cols["start"])
    children = [[] for _ in range(n)]
    for i in range(n):
        if cols["parent"][i] >= 0:
            children[cols["parent"][i]].append(i)
    out = []
    for i in range(n):
        covered, last = 0.0, cols["start"][i]
        for c in sorted(children[i], key=lambda c: cols["start"][c]):
            lo, hi = max(cols["start"][c], last), cols["end"][c]
            if hi > lo:
                covered += hi - lo
                last = hi
        out.append(cols["end"][i] - cols["start"][i] - covered)
    return out


def test_counts_repeat_and_self_time_within_span(tmp_path):
    first, spans = traced_sweep(tmp_path, "a")
    second, _ = traced_sweep(tmp_path, "b")
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert first["trace"]["spans"] == second["trace"]["spans"]
    assert first["trace"]["calls"]["verify.verify_formula2"] == len(PAIRS)
    assert first["trace"]["absent"] == []

    cols = tracing.load_spans(spans)
    assert len(cols["start"]) == first["trace"]["spans"]
    own = own_self_times(cols)
    total = {}
    for i, s in enumerate(own):
        dur = cols["end"][i] - cols["start"][i]
        assert 0.0 <= dur
        assert -1e-9 <= s <= dur + 1e-9
        name = cols["names"][cols["name"][i]]
        total[name] = total.get(name, 0.0) + dur
        assert cols["item"][i] in range(len(PAIRS))
    for name, self_s in first["trace"]["self_s"].items():
        assert self_s <= total.get(name, 0.0) + 1e-6, name


def test_wraps_every_importing_module():
    code = (
        "import sys; sys.path[:0] = [%r]\n"
        "from tracing import Tracer\n"
        "t = Tracer(); t.install()\n"
        "import extsym, extsym.counting as c, extsym.linalg as l\n"
        "import extsym.modules as m, extsym.algebra as a\n"
        "assert c.rref is l.rref and hasattr(l.rref, '__wrapped__')\n"
        "assert extsym.count_flags is c.count_flags\n"
        "assert hasattr(c.count_flags, '__wrapped__')\n"
        "assert hasattr(m.RepModule.key, '__wrapped__')\n"
        "assert hasattr(a.AlgebraPresentation.key, '__wrapped__')\n"
        "print('ok')\n" % BENCH)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=ENV, timeout=60)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_missing_function_is_reported_absent():
    code = (
        "import sys; sys.path[:0] = [%r]\n"
        "import tracing\n"
        "tracing.LAYERS.append(('modules.gone', 'modules', 'gone', None))\n"
        "tracing.LAYERS.append(('nowhere.f', 'nowhere', 'f', None))\n"
        "t = tracing.Tracer(); t.install()\n"
        "print(t.summary()['absent'])\n" % BENCH)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "modules.gone" in proc.stdout and "nowhere.f" in proc.stdout


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
