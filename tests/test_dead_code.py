"""Every top-level function and class of the library is used: referenced
by name in library code or docstrings outside its own definition, a click
command or group, or exported by ``extsym/__init__.py``.  Every method and
property of a library class, dunders aside, is read as an attribute by
library code outside its own definition, and so is every ``__slots__``
entry.  Code and state that only tests read belong in
``tests/oracle.py``."""

import ast
import collections
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "extsym"


def _names(node):
    """The variables and attributes a statement reads and the words of its
    strings; not the names an import binds."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(re.findall(r"\w+", n.value))
    return out


def _is_click_command(node):
    return any(isinstance(f, ast.Attribute) and f.attr in ("command", "group")
               for d in node.decorator_list
               for f in [d.func if isinstance(d, ast.Call) else d])


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _attribute_reads(node):
    return collections.Counter(
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_definition_is_used():
    trees = _trees()
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    tops = [(fname, node) for fname, tree in trees.items()
            for node in tree.body]
    # the number of top-level statements that read or mention each name
    readers = collections.Counter(n for _, node in tops for n in _names(node))
    unused = [f"{fname}:{node.name}" for fname, node in tops
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in exported and not _is_click_command(node)
              and readers[node.name] == (node.name in _names(node))]
    assert unused == []


def test_every_method_is_read():
    trees = _trees()
    reads = sum(map(_attribute_reads, trees.values()), collections.Counter())
    unused = [f"{fname}:{cls.name}.{fn.name}"
              for fname, tree in trees.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef) for fn in cls.body
              if isinstance(fn, ast.FunctionDef)
              and not (fn.name.startswith("__") and fn.name.endswith("__"))
              and reads[fn.name] == _attribute_reads(fn)[fn.name]]
    assert unused == []


def _slots(cls):
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def test_every_slot_is_read():
    trees = _trees()
    reads = sum(map(_attribute_reads, trees.values()), collections.Counter())
    unread = [f"{fname}:{cls.name}.{slot}"
              for fname, tree in trees.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef) for slot in _slots(cls)
              if not reads[slot]]
    assert unread == []
