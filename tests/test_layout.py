"""The package's layout. Its scripts and modules reach no private name
across a module boundary: no ``from .x import _name`` and no ``obj._attr``
read on anything but ``self`` or ``cls`` (tests may; they are not scanned).
The panel rule has one caller per quadrature family, the g-and-h transform
is reached through one affine map and its slope through one method, which
the oracle calls instead of reading a shape parameter, the package's
public names are declared once, in each module's ``__all__``, every
import is used, and no module imports ``scipy.interpolate``. No module
imports ``scipy`` at module level, and only ``special`` imports it at all,
behind one lazy loader that now serves ``beta``'s far range alone, so
start-up and every run of every family, g-and-h included, leave scipy
unloaded. Importing the CLI leaves ``importlib.metadata`` unloaded. One helper,
``models.blockwise``, is the package's only block loop, stepped by its
only block constant, ``models.BLOCK``, and one, ``models.bracketed_roots``,
its only bracketed root solver.
The oracle tests "this stored tail is 1" by one rule, against ``_FLAT``,
so no comparison in ``convolution.py`` has the literal 1.0 as an operand,
and each level has one floor, ``w_floor``, with no ``support`` beside it.
One function, ``approx._model_regime``, estimates the boundary balance q.
``approx.py`` has no loop statement: its curve, one-level views and
crossover read one array kernel.
Monte Carlo knows a model only through its draws and its quantile, so no
fact about a family's inverse transform leaves ``models``, and the oracle
reads no ``from_variates``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "tailconc").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list:
    """(line, text) of every private import and foreign private attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {a.name}") for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append((node.lineno, f".{node.attr}"))
    return found


def test_scan_finds_private_access():
    source = "from .models import _NEWTON_TOL\nm._moments(1.0)\nself._tail\ncls._x\nx.__class__\n"
    assert private_uses(source) == [(1, "import _NEWTON_TOL"), (2, "._moments")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_cross_module_access(path):
    assert private_uses(path.read_text()) == []


def owned(source: str, kinds) -> list:
    """(innermost function around it, or None at module level, node) of
    every node of the ast ``kinds``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, kinds):
                found.append((owner, child))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def calls(source: str) -> list:
    """(innermost function around it, or None at module level, call node) of every call."""
    return owned(source, ast.Call)


def loops(source: str) -> list:
    """(innermost function around it, statement name) of every loop statement."""
    return [(owner, type(node).__name__) for owner, node in owned(source, (ast.For, ast.While))]


def _name(node) -> str:
    """The name of a bare name or of an attribute, else ''."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def callers(source: str, callee: str) -> list:
    """The innermost function around each call of ``callee`` (None at module level)."""
    return [owner for owner, call in calls(source) if _name(call.func) == callee]


def test_callers_scan():
    source = "def f():\n    def g():\n        rule(1)\n    m.rule(2)\nrule(3)\n"
    assert callers(source, "rule") == ["g", "f", None]


def test_loop_scan():
    source = "def f():\n    while g():\n        for x in y: pass\n    [x for x in y]\nfor z in w: pass\n"
    assert loops(source) == [("f", "While"), ("f", "For"), (None, "For")]


def test_one_bracketed_root_solver():
    # the oracle's quantiles and the crossover level share one Chandrupatla
    # loop, models.bracketed_roots, and neither iterates on its own; approx.py
    # has no loop: the curve, its one-level views and crossover read one
    # array path, which no function there reaches through the views and
    # which writes NaN from a mask, not from a caught DomainError
    found = [name for path in SOURCES for name in callers(path.read_text(), "bracketed_roots")]
    assert sorted(found) == ["crossover", "oracle_quantiles"]
    package = ROOT / "src" / "tailconc"
    source = (package / "approx.py").read_text()
    assert loops(source) == []
    assert callers(source, "second_order_approx") == []
    handlers = [node for _, node in owned(source, ast.ExceptHandler)]
    assert [_name(h.type) for h in handlers] == ["OverflowError"]
    assert "oracle_quantiles" not in {owner for owner, _ in loops((package / "convolution.py").read_text())}


def block_loops(source: str) -> list:
    """The function around each ``range`` stepped by a name ending in ``BLOCK``."""
    return [
        owner
        for owner, call in calls(source)
        if _name(call.func) == "range" and len(call.args) == 3 and _name(call.args[2]).endswith("BLOCK")
    ]


def block_constants(source: str) -> list:
    """Every module-level name ending in ``BLOCK`` that ``source`` assigns."""
    return [
        target.id
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("BLOCK")
    ]


def test_block_scans():
    source = (
        "A_BLOCK = 8\nB = 2\ndef f(x):\n    for i in range(0, x, A_BLOCK): pass\n"
        "    range(0, x, m.BLOCK)\n    range(0, x, B)\n    range(A_BLOCK)\n"
    )
    assert block_loops(source) == ["f", "f"]
    assert block_constants(source) == ["A_BLOCK"]


def test_one_block_loop_and_one_block_constant():
    paths = sorted((ROOT / "src" / "tailconc").glob("*.py"))
    loops = [(p.name, f) for p in paths for f in block_loops(p.read_text())]
    constants = [(p.name, c) for p in paths for c in block_constants(p.read_text())]
    assert loops == [("models.py", "blockwise")]
    assert constants == [("models.py", "BLOCK")]


def test_one_caller_estimates_the_boundary_balance():
    # approx._model_regime is the one place a regime and its q are resolved
    found = [name for path in SOURCES for name in callers(path.read_text(), "_boundary_q_estimate")]
    assert found == ["_model_regime"]


def test_panel_rule_has_one_caller_per_quadrature_family():
    # the oracle's integrals all go through convolution._integrate; the
    # truncated mean keeps its dot product with the rule's weights, which
    # rounds differently from the row sum and reaches the bytes of `info`
    found = [name for path in SOURCES for name in callers(path.read_text(), "panel_rule")]
    assert sorted(found) == ["_integrate", "_truncated_mean_quad"]


def test_public_api_is_the_union_of_the_module_lists():
    import tailconc
    from tailconc import approx, convolution, errors, models, montecarlo

    names = tailconc.__all__
    assert len(names) == len(set(names))
    modules = (errors, models, approx, convolution, montecarlo)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
    for name in names:
        assert getattr(tailconc, name) is not None


def test_gh_transform_is_called_by_the_affine_map_and_the_inverse():
    # every loss a + b k(z) goes through GandH.x_of_z
    found = [name for path in SOURCES for name in callers(path.read_text(), "gh_transform")]
    assert sorted(found) == ["gh_inverse", "gh_inverse", "x_of_z"]


def test_gh_transform_deriv_is_called_by_the_slope_only():
    # the oracle reaches the slope b k'(z) through GandH.dx_dz
    found = [name for path in SOURCES for name in callers(path.read_text(), "gh_transform_deriv")]
    assert found == ["dx_dz"]


def test_the_oracle_reads_no_gandh_shape_parameter():
    # of a g-and-h model's parameters the oracle reads only the shift a
    tree = ast.parse((ROOT / "src" / "tailconc" / "convolution.py").read_text())
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "a" in read and not read & {"b", "g", "h"}


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module neither reads nor
    lists in ``__all__``; star imports and ``__future__`` features are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_scan():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .m import *\nfrom .m import a, b as c, d\n__all__ = ['d', *x]\nnp.f(a)\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "c")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set:
    """Every module an ``import`` names, with ``from a import b`` as both
    ``a`` and ``a.b``; relative imports are left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return found


def test_import_scan():
    source = "import numpy as np\nfrom scipy import interpolate\nfrom . import models\n"
    assert imported_modules(source) == {"numpy", "scipy", "scipy.interpolate"}


def module_level_imports(source: str) -> set:
    """``imported_modules`` of the imports that run when the module is
    imported: every import outside a function body."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.update(imported_modules(ast.unparse(child)))
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_import_scan():
    source = (
        "import numpy\ntry:\n    from scipy import special\nexcept ImportError:\n    pass\n"
        "class A:\n    import os\ndef f():\n    import scipy\n"
    )
    assert module_level_imports(source) == {"numpy", "scipy", "scipy.special", "os"}


def _scipy(names: set) -> list:
    return sorted(n for n in names if n == "scipy" or n.startswith("scipy."))


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "tailconc").glob("*.py")), ids=lambda p: p.name
)
def test_no_module_imports_scipy_at_module_level(path):
    assert _scipy(module_level_imports(path.read_text())) == []


def test_only_special_imports_scipy_special():
    # special.scipy_special is the one route to scipy; the CLI reads its version from metadata.
    # So no module imports scipy.interpolate, and the oracle and Monte Carlo import no scipy
    found = {p.name: _scipy(imported_modules(p.read_text())) for p in (ROOT / "src" / "tailconc").glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {"special.py": ["scipy", "scipy.special"]}


def _printed_by(code: str) -> list:
    """The words ``code`` prints, run in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_import_leaves_scipy_interpolate_unloaded():
    assert _printed_by("import sys, tailconc.cli; print('scipy.interpolate' in sys.modules)") == ["False"]


def test_cli_import_leaves_importlib_metadata_unloaded():
    # only JSON output reads the package versions, so importing the CLI loads
    # importlib.metadata (and its email, zipfile and csv) only where numpy did
    code = (
        "import sys, numpy\n"
        "print('importlib.metadata' in sys.modules)\n"
        "import tailconc.cli\n"
        "print('importlib.metadata' in sys.modules)\n"
    )
    before, after = _printed_by(code)
    assert after == before


def test_pareto_burr_and_hall_runs_leave_scipy_unloaded():
    # one process: scipy absent after every run means no run loaded it
    runs = [
        ["curve", "--model", '{"kind": "pareto", "xi": 0.5}', "--n", "3", "--oracle", "--samples", "0"],
        ["curve", "--model", '{"kind": "burr", "tau": 1.0, "kappa": 2.0}', "--n", "2", "--oracle", "--samples", "0"],
        ["curve", "--model", '{"kind": "hall", "c": 1.0, "d": -0.3, "xi": 0.8, "rho": -0.4}', "--n", "2",
         "--oracle", "--samples", "20000"],
        ["curve", "--model", '{"kind": "pareto", "xi": 1.25}', "--n", "2", "--samples", "2000", "--format", "json"],
        ["info", "--model", '{"kind": "burr", "tau": 0.25, "kappa": 8.0}', "--n", "2", "--format", "json"],
    ]
    code = (
        "import contextlib, io, sys, tailconc.cli\n"
        "print('scipy' in sys.modules)\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = tailconc.cli.main(argv)\n"
        "    print(code, 'scipy' in sys.modules)\n"
    )
    assert _printed_by(code) == ["False"] + ["0", "False"] * len(runs)


def test_gandh_build_oracle_and_monte_carlo_leave_scipy_unloaded():
    # one process: the g-and-h normal law is special's own ndtr and ndtri
    model = '{"kind": "gandh", "a": 0.0, "b": 1.0, "g": 2.0, "h": 0.5}'
    runs = [
        ["curve", "--model", model, "--n", "2", "--oracle", "--samples", "0"],
        ["curve", "--model", model, "--n", "3", "--oracle", "--samples", "0"],
        ["curve", "--model", model, "--n", "2", "--samples", "20000", "--points", "4"],
    ]
    code = (
        "import contextlib, io, sys, tailconc.cli\n"
        "tailconc.GandH(0.0, 1.0, 2.0, 0.5)\n"
        "print('scipy' in sys.modules)\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = tailconc.cli.main(argv)\n"
        "    print(code, 'scipy' in sys.modules)\n"
    )
    assert _printed_by(code) == ["False"] + ["0", "False"] * len(runs)


def one_comparisons(source: str) -> list:
    """Line of every comparison with the literal 1.0 as an operand."""

    def is_one(node):
        return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1.0

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare) and any(map(is_one, [node.left, *node.comparators]))
    ]


def test_one_comparison_scan():
    source = "a >= 1.0\nb < 1.0 - c\n1.0 == d\ne > 1\nf(1.0)\ng <= x <= 1.0\n"
    assert one_comparisons(source) == [1, 3, 6]


def test_oracle_tests_is_one_only_against_flat():
    assert one_comparisons((ROOT / "src" / "tailconc" / "convolution.py").read_text()) == []


def test_each_level_has_one_floor():
    # every pairwise step reads a level's floor as w_floor; no level keeps its support
    tree = ast.parse((ROOT / "src" / "tailconc" / "convolution.py").read_text())
    assert "support" not in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def attributes_read(source: str, name: str) -> set:
    """Every attribute read on the bare name ``name``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == name
    }


def test_attribute_scan():
    source = "model.quantile(a)\nf(model).x\nmodel.kind\nother.tail\n"
    assert attributes_read(source, "model") == {"quantile", "kind"}


def test_monte_carlo_reads_only_draws_and_quantiles_of_a_model():
    source = (ROOT / "src" / "tailconc" / "montecarlo.py").read_text()
    assert attributes_read(source, "model") <= {"variates", "from_variates", "quantile"}


def test_oracle_reads_no_monte_carlo_map():
    # the oracle integrates each family in its own score (the log-tail or
    # the normal score), so from_variates has Monte Carlo as its only reader
    source = (ROOT / "src" / "tailconc" / "convolution.py").read_text()
    assert "from_variates" not in attributes_read(source, "model")
