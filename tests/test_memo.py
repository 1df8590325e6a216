"""The one cache mechanism: every table is bounded, clearable, and the
only kind of module-level dict in the package."""

import importlib
import pkgutil

import extsym
from extsym import memo
from extsym.instances import a2_catalog
from extsym.verify import verify_formula1, verify_formula2


def _is_table(value) -> bool:
    return any(value is t for t in memo._tables)


def test_every_table_is_bounded_and_cleared(a2, monkeypatch):
    alg, mods = a2
    args = (mods["S1"], mods["S2"], [mods["S1"], mods["S2"]],
            a2_catalog(alg, 2))
    verifiers = (verify_formula2, verify_formula1)
    memo.clear_all()
    want = [verify(*args).rows for verify in verifiers]
    monkeypatch.setattr(memo, "LIMIT", 3)
    memo.clear_all()
    assert [verify(*args).rows for verify in verifiers] == want
    assert max(len(t) for t in memo._tables) <= 3
    assert all(memo._tables)
    memo.clear_all()
    assert not any(memo._tables)


def test_every_module_level_dict_is_a_memo_table():
    """Ad-hoc caches cannot come back unnoticed."""
    found = []
    for info in pkgutil.iter_modules(extsym.__path__):
        mod = importlib.import_module(f"extsym.{info.name}")
        for name, value in vars(mod).items():
            if name.startswith("__"):
                continue
            if isinstance(value, dict) or hasattr(value, "cache_info"):
                found.append(name)
                assert _is_table(value), f"extsym.{info.name}.{name}"
    assert found
