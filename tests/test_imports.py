"""Imports: every module-level one is used, and no command loads scipy.

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


# Runs the commands given in argv[2:] (one per argument, words split on
# spaces) in-process with every scipy import refused, and prints their exit
# codes, the refused imports and the scipy modules loaded.
NO_SCIPY = """\
import sys


class RefuseScipy:
    refused = []

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            self.refused.append(name)
            raise ImportError(f"{name} is a test-only dependency")


sys.meta_path.insert(0, RefuseScipy())
from dysonmap.cli import main

commands = [args.split() for args in sys.argv[2:]]
codes = [main([*args, "--out", f"{sys.argv[1]}/{i}"]) for i, args in enumerate(commands)]
print(codes, RefuseScipy.refused, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

SMALL = "--set dim=12 --set grid.steps=2000"


def _refusing_scipy(tmp_path, *commands: str) -> str:
    # scipy serves the tests as a reference and is no runtime dependency
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, DYSONMAP_WORKERS="1")
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path), *commands],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_run_needs_no_exponential_and_no_scipy_integrate(tmp_path):
    # with scipy refused, no command can reach scipy.linalg.expm or scipy.integrate
    last = _refusing_scipy(tmp_path, f"run s1 {SMALL}", f"diagnose s1 {SMALL}",
                           f"sweep s1 {SMALL} --axis kappa:0.05:0.1:2")
    assert last == "[0, 0, 0] [] []"


def test_pt_phase_never_imports_scipy(tmp_path):
    last = _refusing_scipy(tmp_path, "pt-phase s1 --axis alpha.c.arg:0:3.14:5")
    assert last == "[0] [] []"
