"""The public surface stays small: every public function has a caller that is not a unit test.

A public module-level function must back a CLI path, an acceptance criterion
or a perfbench op, so it has to be used by the package itself, by
``tests/test_acceptance.py`` or by ``perfbench/*.py``.  A use is a read of
the function's own global name in its module, through any scope; or, in any
of those files, an attribute ``module.name``, an import of it, or
``module.name`` in a string literal that is not a docstring (the form in
which perfbench observes the functions it traces).  A parameter or local
variable of the same name is no use.  The README's python block is executed
as well, so the library sketch cannot go stale.
"""

import ast
import inspect
import re
import symtable
from pathlib import Path

import pytest

from todaflow import cli, dyson, growth, hydro, laurent, loewner, svgout

ROOT = Path(__file__).resolve().parents[1]
MODULES = (laurent, growth, loewner, hydro, dyson, svgout, cli)
CALLER_FILES = (*sorted((ROOT / "src" / "todaflow").glob("*.py")),
                ROOT / "tests" / "test_acceptance.py",
                *sorted((ROOT / "perfbench").glob("*.py")))


def public_functions(module):
    """Public functions defined in ``module`` itself, by perfbench's ``layertrace`` rule."""
    return sorted(name for name, obj in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(obj)
                  and obj.__module__ == module.__name__)


def global_reads(path):
    """Module-level names that the code in ``path`` reads, in any scope."""
    def walk(table):
        for sym in table.get_symbols():
            if sym.is_referenced() and (table.get_type() == "module" or sym.is_global()):
                yield sym.get_name()
        for child in table.get_children():
            yield from walk(child)
    return set(walk(symtable.symtable(path.read_text(), str(path), "exec")))


def qualified_uses(path):
    """Every ``module.name`` that ``path`` reads, imports or spells in a non-docstring string."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            short = node.module.rpartition(".")[2]
            found.update(f"{short}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            found.update(re.findall(r"\b[a-z]+\.\w+", node.value))
    return found


@pytest.fixture(scope="module")
def uses():
    return set().union(*(qualified_uses(path) for path in CALLER_FILES))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rpartition(".")[2])
def test_every_public_function_has_a_caller(module, uses):
    short = module.__name__.rpartition(".")[2]
    own = global_reads(Path(module.__file__))
    orphans = [name for name in public_functions(module)
               if name not in own and f"{short}.{name}" not in uses]
    assert orphans == []


def test_readme_python_block_runs(capsys):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
