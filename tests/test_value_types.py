"""The value types: plain ``__slots__`` classes with hand-written
constructors, value equality where values are compared, and no
``dataclasses`` import at start-up."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from extsym import algebra, delta, euler, ext, linalg, modules, verify
from extsym.algebra import AlgebraError, Path, Quiver, Relation
from extsym.euler import EulerError, interpolate_euler
from extsym.fields import GF, RATIONALS
from extsym.instances import a2_preprojective
from extsym.linalg import Mat, Subspace, span

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# every value type with its constructor's parameters, in positional order
FIELDS = [
    (linalg.Mat, ("rows", "nrows", "ncols")),
    (linalg.Subspace, ("field", "ambient", "mat", "pivots")),
    (algebra.Arrow, ("name", "source", "target")),
    (algebra.Quiver, ("vertices", "arrows")),
    (algebra.Path, ("vertex", "arrows")),
    (algebra.Relation, ("terms",)),
    (algebra.AlgebraPresentation, ("quiver", "relations", "label")),
    (modules.RepModule, ("algebra", "field", "dims", "matrices")),
    (modules.HomBasis, ("source", "target", "basis")),
    (ext.ExtSpace, ("x", "y", "d_basis", "d_pivots", "compl", "readout",
                    "layout", "total")),
    (ext.SymmetryRow, ("dim_mn", "dim_nm")),
    (ext.SymmetryReport, ("rows",)),
    (euler.EulerValue, ("value", "coeffs", "samples", "degree_bound",
                        "consistency")),
    (delta.DeltaSignature, ("label", "mode", "table")),
    (delta.MultiplicativityReport, ("per_type",)),
    (verify.VerificationReport, ("formula", "instance", "rows", "strata",
                                 "efg", "symmetry_ok", "primes", "details")),
    (verify.AuditSummary, ("entries",)),
]


def _valid_args(cls, names):
    """Arguments the constructor accepts: real values where it checks
    them, distinct placeholders elsewhere."""
    arrow = algebra.Arrow("a", "1", "2")
    quiver = Quiver(("1", "2"), (arrow,))
    path = Path(None, ("a",))
    given = {
        Quiver: {"vertices": ("1", "2"), "arrows": (arrow,)},
        Path: {"vertex": None, "arrows": ("a",)},
        Relation: {"terms": ((Fraction(1), path),)},
    }.get(cls)
    if given is None:
        given = {n: object() for n in names}
        if cls is algebra.AlgebraPresentation:
            given["quiver"] = quiver
    return given


@pytest.mark.parametrize("cls,names", FIELDS,
                         ids=[c.__name__ for c, _ in FIELDS])
def test_keyword_and_positional_construction(cls, names):
    args = _valid_args(cls, names)
    by_name = cls(**args)
    by_position = cls(*(args[n] for n in names))
    for n in names:
        assert getattr(by_name, n) is args[n]
        assert getattr(by_position, n) is args[n]
    assert not hasattr(by_name, "__dict__")


def test_defaults():
    q = Quiver(("1",), ())
    assert algebra.AlgebraPresentation(q, ()).label == ""
    assert Path(vertex="1").arrows == ()
    assert Path(arrows=("a",)).vertex is None
    a, b = (verify.VerificationReport("f1", {}, (), {}, None, True, ())
            for _ in range(2))
    assert a.details == {} and b.details == {}
    assert a.details is not b.details


@pytest.mark.parametrize("make,error,match", [
    (lambda: Quiver((), ()), AlgebraError, "at least one vertex"),
    (lambda: Quiver(("1", "1"), ()), AlgebraError, "duplicate vertex"),
    (lambda: Path(), AlgebraError, "either a vertex"),
    (lambda: Path("1", ("a",)), AlgebraError, "either a vertex"),
    (lambda: Relation(()), AlgebraError, "empty relation"),
    (lambda: Relation(((Fraction(0), Path("1")),)), AlgebraError,
     "zero coefficient"),
    # the sample checks of interpolation
    (lambda: interpolate_euler("c", ((2, 1), (3, -1)), 1), EulerError,
     "negative count"),
    (lambda: interpolate_euler("c", ((2, 1), (2, 1)), 1), EulerError,
     "duplicate sample primes"),
], ids=["no-vertex", "duplicate-vertex", "empty-path", "vertex-and-arrows",
        "empty-relation", "zero-coefficient", "negative-count",
        "duplicate-prime"])
def test_constructors_validate(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_equal_values_are_equal_and_hash_alike():
    field = GF(5)
    pairs = [
        (Mat(((1, 2),), 1, 2), Mat.from_rows([[1, 2]])),
        (span(field, [[2, 4]], 2),
         Subspace(field, 2, Mat(((1, 2),), 1, 2), (0,))),
        (Path(arrows=("a", "b")), algebra.arrow_path("a", "b")),
        (Path(vertex="1"), algebra.vertex_path("1")),
    ]
    for x, y in pairs:
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
    assert Mat(((1,),), 1, 1) != Mat(((2,),), 1, 1)
    assert Mat((), 0, 1) != Mat((), 0, 2)
    assert span(field, [[1, 0]], 2) != span(field, [[0, 1]], 2)
    assert span(field, [[1, 0]], 2) != span(GF(3), [[1, 0]], 2)
    assert Path(vertex="1") != Path(vertex="2")
    assert Path(vertex="1") != ("1", ())


def test_modules_and_algebras_compare_by_value(a2):
    alg, mods = a2
    again = a2_preprojective()
    assert again is not alg and again == alg and hash(again) == hash(alg)
    s1 = modules.simple_at_vertex(again, RATIONALS, "1")
    assert s1 == mods["S1"] and hash(s1) == hash(mods["S1"])
    assert s1 != mods["S2"]


def test_keys_are_computed_once(a2):
    alg, mods = a2
    m = mods["P1"]
    assert m.key() is m.key()
    assert alg.key() is alg.key()


@pytest.mark.parametrize("module", ["extsym", "extsym.cli"])
def test_import_leaves_dataclasses_out(module):
    code = (f"import sys, {module}; "
            f"print('dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
