"""Imports: every module-level one is used, and scipy stays lazy and small.

Deleting code can leave an import behind that nothing reads; this finds it
with the standard library's ast, so it needs no linter.  It walks the
package's modules and the test files.  The package's ``__init__.py`` is
skipped (its imports are the public re-exports), as are ``__future__``
imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "dysonmap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


def _cli_subprocess(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_run_needs_no_exponential_and_no_scipy_integrate(tmp_path):
    # eta0 and the displacements are normal-ordered and the Simpson rule is
    # numpy's; only the rcond estimate reaches into scipy.linalg
    code = (
        "import sys\n"
        "import scipy.linalg\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('scipy.linalg.expm called')\n"
        "scipy.linalg.expm = refuse\n"
        "from dysonmap.cli import main\n"
        "code = main(['run', 's1', '--set', 'dim=12', '--set', 'grid.steps=2000',\n"
        f"             '--out', {str(tmp_path)!r}])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n"
        "sys.exit(code)\n"
    )
    proc = _cli_subprocess(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_pt_phase_never_imports_scipy(tmp_path):
    # scipy.linalg and scipy.integrate take about 0.6 s to import, which pt-phase never needs
    code = (
        "import sys\n"
        "from dysonmap.cli import main\n"
        f"main(['pt-phase', 's1', '--axis', 'alpha.c.arg:0:3.14:5', '--out', {str(tmp_path)!r}])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = _cli_subprocess(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
