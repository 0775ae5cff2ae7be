"""Every name a library module imports is used in that module: the check a
linter makes, so that folding code leaves no dead import behind. The
package ``__init__`` is exempt, since its imports are its re-exports. A
heavy import that only some callers need stays deferred to its first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mcperturb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree) -> dict[str, int]:
    """Bound name -> line of every import in the module, nested ones too."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import numpy as np\nfrom .errors import ParseError, ValidationError\n"
                     "def f(x: 'np.ndarray'):\n    raise ParseError(x)\n")
    assert {n for n in _imported(tree) if n not in _used(tree)} == {"ValidationError"}


def _loaded_after_each_print(code):
    """Run ``code`` in a fresh interpreter; it prints whether a module is
    loaded at each point of interest."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.split()


# scipy.spatial costs about 0.15 s and 6-8 MB to import, so only a process that
# computes an ergodicity coefficient of either chain kind should pay for it

def test_scipy_spatial_loads_on_the_first_transition_matrix_scan():
    assert _loaded_after_each_print(
        "import sys, mcperturb\n"
        "print('scipy.spatial' in sys.modules)\n"
        "mcperturb.ergodicity_coefficient([[0.5, 0.5], [1.0, 0.0]])\n"
        "print('scipy.spatial' in sys.modules)\n") == ["False", "True"]


def test_scipy_spatial_loads_on_the_first_generator_scan():
    assert _loaded_after_each_print(
        "import sys, mcperturb\n"
        "from mcperturb.gallery import mm1\n"
        "Q = mm1(truncation=8).chain\n"
        "print('scipy.spatial' in sys.modules)\n"
        "mcperturb.ctmc_ergodicity_coefficient(Q)\n"
        "print('scipy.spatial' in sys.modules)\n") == ["False", "True"]


def test_the_banded_solver_adds_no_import():
    """``solvers`` imports scipy.linalg's banded solver at module level. The
    package loads scipy.linalg before that line runs (``chains`` imports
    scipy.sparse.csgraph, which loads it), so the banded solver costs no
    import time: sys.modules lists scipy.linalg before mcperturb.solvers."""
    assert _loaded_after_each_print(
        "import sys, mcperturb\n"
        "print('scipy.linalg' in sys.modules)\n"
        "loaded = list(sys.modules)\n"
        "print(loaded.index('scipy.linalg') < loaded.index('mcperturb.solvers'))\n"
    ) == ["True", "True"]
