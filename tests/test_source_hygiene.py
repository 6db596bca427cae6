"""Checks on the package source: no dead code or exports, no bare asserts, an integer kernel, a light import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ordercone

PACKAGE = Path(ordercone.__file__).parent

# Modules whose checks must survive `python -O`.
NO_ASSERT = ("linalg", "lp", "cones", "bands", "atoms", "cover", "seqspace")


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def loaded_names(module: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(module) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def exported_names(module: ast.Module) -> list[str]:
    """The names the module's __all__ lists, in order."""
    return [
        elt.value
        for node in ast.walk(module)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
        if isinstance(elt, ast.Constant)
    ]


def read_names(module: ast.Module) -> set[str]:
    """Names the module loads, plus the names its __all__ lists."""
    return loaded_names(module) | set(exported_names(module))


def unread_imports(module: ast.Module) -> list[str]:
    """Names bound by an import and never loaded; names in __all__ count as read."""
    imported = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = read_names(module)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def unread_globals(modules: dict[str, ast.Module]) -> list[str]:
    """Module-level names bound in one module, by assignment, `def` or `class`, and read in none of them.

    A name counts as read anywhere in the package; names in __all__ count as
    read, and dunder names are exempt.
    """
    read = set().union(*[read_names(module) for module in modules.values()])
    found = []
    for mod, module in modules.items():
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                continue
            unread = [name for name in names if name not in read and not name.startswith("__")]
            found += [f"{mod}.{name} (line {node.lineno})" for name in unread]
    return found


def exports_read_only_in_init(modules: dict[str, ast.Module]) -> list[str]:
    """Names in the package's __all__ that no module other than __init__ loads.

    Listing such a name in __all__ is its only read: it is public API that
    nothing in the package reaches.  No name is exempt.
    """
    read = set().union(*[loaded_names(module) for mod, module in modules.items() if mod != "__init__"])
    return [name for name in exported_names(modules["__init__"]) if name not in read]


def test_unread_imports_are_detected():
    src = "from os import path, sep\nimport sys\n__all__ = ['sep']\nprint(sys.argv)\n"
    assert unread_imports(ast.parse(src)) == ["path (line 1)"]


def test_no_module_imports_a_name_it_never_reads():
    dead = {p.name: unread_imports(tree(p)) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in dead.items() if names} == {}


def test_unread_globals_are_detected():
    modules = {
        "a": ast.parse(
            "X = 1\nY, Z = 2, 3\nW: int = 4\n__all__ = ['Z']\n"
            "def f():\n    return g()\ndef g():\n    pass\nclass K:\n    pass\nclass L:\n    pass\n"
        ),
        "b": ast.parse("from a import X, L\nprint(X, L)\n"),
    }
    assert unread_globals(modules) == ["a.Y (line 2)", "a.W (line 3)", "a.f (line 5)", "a.K (line 9)"]


def test_no_module_level_name_goes_unread():
    assert unread_globals({p.stem: tree(p) for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_exports_read_only_in_init_are_detected():
    modules = {
        "__init__": ast.parse("from .a import f, g, h\n__all__ = ['f', 'g', 'h']\nprint(g)\n"),
        "a": ast.parse("def f():\n    pass\ndef g():\n    pass\ndef h():\n    return f()\n"),
        "b": ast.parse("from .a import h\nh()\n"),
    }
    assert exports_read_only_in_init(modules) == ["g"]


def test_every_export_is_read_outside_init():
    assert exports_read_only_in_init({p.stem: tree(p) for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_no_bare_assert_in_the_certified_layers():
    found = [
        f"{name}.py:{node.lineno}"
        for name in NO_ASSERT
        for node in ast.walk(tree(PACKAGE / f"{name}.py"))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Helpers of `linalg` that build Fractions: calling one is a rational step too.
FRACTION_BUILDERS = {
    "dot", "mat_vec", "vadd", "vsub", "vscale", "primitive", "invert", "solve_linear", "_over", "_fractions"
}


def rational_steps(func: ast.FunctionDef) -> list[str]:
    """`Fraction(...)` calls, calls of the Fraction builders and true divisions inside a function."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "Fraction" or node.func.id in FRACTION_BUILDERS:
                found.append(f"{node.func.id}( at line {node.lineno}")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"/ at line {node.lineno}")
    return found


def function(module: str, name: str) -> ast.FunctionDef:
    return next(
        node
        for node in ast.walk(tree(PACKAGE / f"{module}.py"))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_rational_steps_are_detected():
    src = "def f(a, b):\n    c = a // b\n    c /= 2\n    return Fraction(a) + a / b + dot(a, b)\n"
    assert rational_steps(ast.parse(src).body[0]) == [
        "/ at line 3",
        "dot( at line 4",
        "Fraction( at line 4",
        "/ at line 4",
    ]


def test_elimination_kernel_stays_on_integers():
    # The pivot, the simplex loop, the cone test, the double description
    # loop and the flat pass with its pieces run on integer rows; only their
    # callers build Fractions.
    kernel = (
        ("linalg", "_pivot"),
        ("lp", "_simplex"),
        ("cones", "in_cone"),
        ("cones", "_cut"),
        ("bands", "_flats"),
        ("bands", "_cut_piece"),
    )
    assert {f"{m}.{f}": rational_steps(function(m, f)) for m, f in kernel} == {
        "linalg._pivot": [],
        "lp._simplex": [],
        "cones.in_cone": [],
        "cones._cut": [],
        "bands._flats": [],
        "bands._cut_piece": [],
    }


def test_import_leaves_the_front_end_unloaded():
    # The CLI, the self-test and the sequence space load on first use only.
    probe = (
        "import sys, ordercone\n"
        "heavy = ('ordercone.cli', 'ordercone.selftest', 'ordercone.seqspace', 'argparse')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "print(callable(ordercone.run_selftest), callable(ordercone.seq))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "True True"]
