"""Every public function of volmin has a caller in volmin itself.

An API that only tests call is code the package carries without using. This
test parses each module of `src/volmin` and fails on any public module-level
function that no code under `src/` names, as a plain name or an attribute,
outside that function's own body."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "volmin"

# Kept without a caller in src/: the acceptance suite (the spec) calls them.
SPEC_ONLY = {
    "config.default_config",
    "geometry.min_volume_interval",
    "transition.backward",
}


def _names(node):
    """How often `node` names each identifier, as a Name or an Attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def uncalled_public_functions():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{fn.name}"
        for module, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        # Named nowhere but in its own body.
        and everywhere[fn.name] == _names(fn)[fn.name]
    ]


def test_no_public_function_only_tests_call():
    # An allow-listed function that gains a caller, or goes, leaves the list.
    assert sorted(uncalled_public_functions()) == sorted(SPEC_ONLY)
