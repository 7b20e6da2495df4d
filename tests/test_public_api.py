"""Every public function of volmin has a caller in volmin itself, and every
defaulted parameter a caller that sets it.

An API that only tests call is code the package carries without using, and
so is a knob that no caller turns. These tests parse each module of
`src/volmin`. The first fails on any public module-level function that no
code under `src/` names, as a plain name or an attribute, outside that
function's own body. The second fails on any defaulted parameter of a public
function or non-dunder method that no call under `src/` passes, outside the
function's own body."""

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


# Defaulted parameters that no call in src/ passes, each with its reason.
UNPASSED = {
    "cli.main(argv)": "the spec (C3, C4) and the benchmark run the CLI in-process",
    "model.init_classifier(head)": "the spec checks every head's gradients (C1)",
    "trainer.train(soft_targets)": "the spec trains on soft targets (C5)",
    "trainer.train(val_soft_targets)": "the spec selects on soft targets (C5)",
    "transition.backward(natural)": "the spec checks the plain gradient (C1)",
    "transition.init_weights(value)": "the spec realizes given weights (C2)",
}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passes(call, name, position):
    """Whether `call` passes parameter `name`, which sits at `position` among
    the positional parameters (None for a keyword-only one)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unpassed_parameters():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    # (qualified name, def, positional parameters it skips: a method's self)
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((f"{module}.{node.name}", node, 0))
            elif isinstance(node, ast.ClassDef):
                defs += [
                    (f"{module}.{node.name}.{fn.name}", fn, 1)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))
                ]
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    flagged = []
    for qualname, fn, skip in defs:
        own = set(map(id, ast.walk(fn)))
        mine = [c for c in calls if _callee(c) == fn.name and id(c) not in own]
        args = fn.args
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        params = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
        params += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]
        flagged += [
            f"{qualname}({name})" for name, position in params
            if not any(_passes(c, name, position) for c in mine)
        ]
    return flagged


def test_no_defaulted_parameter_only_tests_pass():
    # An allow-listed parameter that gains a caller, or goes, leaves the list.
    assert sorted(unpassed_parameters()) == sorted(UNPASSED)
