"""Rules on the source text: one F_p code path and one fitter of Euler
characteristics in the library, and the grammar of the oldest Python
that ``pyproject.toml`` accepts."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "extsym"

# the reductions mod an integer that are not field arithmetic: the integer
# certificate test of prime screening and the search's scrambler
NOT_FIELD_ARITHMETIC = {("counting.py", "good_prime_for_pairs"),
                        ("modules.py", "_lcg_tuples")}


def _is_mod(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Mod)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3)


def test_only_linalg_and_fields_reduce_mod_p():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("linalg.py", "fields.py"):
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            found += [f"{path.name}:{n.lineno} in {owner}"
                      for n in ast.walk(top) if _is_mod(n)
                      and (path.name, owner) not in NOT_FIELD_ARITHMETIC]
    assert found == []


def test_only_euler_of_interpolates():
    """Every Euler characteristic is fitted by ``euler.euler_of``: no
    other module calls ``interpolate_euler``."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else \
                    getattr(f, "attr", None)
                if name == "interpolate_euler":
                    callers.add(path.name)
    assert callers == {"euler.py"}


def test_every_file_parses_as_python_3_10():
    files = [path for d in ("src", "tests", "perfbench")
             for path in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 30
    for path in files:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, 10))
