"""Every public top-level function and class of the package, and every public
method or property of a public class, has a caller in the package; every
defaulted parameter of those functions and methods is set by a caller in the
package; every name a module imports is used in that module; the package
imports nothing outside the standard library; and no division in it can make
a float.

A public name whose only caller is its own unit test is dead weight: it has to
be kept correct and documented but serves no command.  So is an option that no
caller sets.  The few names and options below are kept because an acceptance
criterion, the tests' oracles or diagnostics, or the benchmark's own tests use
them.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wpp_mori"

ALLOWED_UNCALLED = {
    "m0n.unimodular_equivalent": "acceptance criterion 7 (lattice equivalence)",
    "m0n.search_weights": "acceptance criterion 7 (weight search)",
    "mult.slice_dim": "acceptance criterion 8 and bench/test_bench.py (tracer spans)",
    "groebner.ideal_member": "acceptance criterion 10 (saturation membership)",
    "groebner.quotient_by": "the I : f reference of criterion 10 and of the tests' from-scratch verification loop",
    "groebner.krull_dimension": "the reference of criterion 10 and of the tests' from-scratch verification loop",
    "coxring.VerificationReport.failures": "diagnostics of failed reports in the tests",
    "orthpair.MdsVerdict.is_mori_dream": "acceptance criteria 1-3 (verdict tables)",
    "poly.SparsePoly.monic": "the sympy oracle of the Groebner tests (monic bases)",
}

ALLOWED_UNSET = {
    "orthpair.mds_test(tie_break)": "acceptance criterion 9 (tie-break independence)",
    "groebner.saturate(step_budget)": "the pinned step-count tests",
    "groebner.quotient_by(step_budget)": "the pinned step-count tests",
    "cli.main(argv)": "the tests drive the CLI in-process",
}


def _names(node):
    """How often each name is used inside a syntax tree."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def _public(trees):
    """(qualified name, node) of each public class and function, and of their public methods."""
    public = [
        (f"{module}.{node.name}", node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    public += [
        (f"{name}.{method.name}", method)
        for name, node in public
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
    ]
    return public


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_public_definition_has_a_caller_in_the_package():
    trees = _trees()
    used = sum((_names(tree) for tree in trees.values()), Counter())
    public = _public(trees)
    uncalled = [
        name
        for name, node in public
        # uses inside the definition itself (recursion) do not count
        if used[node.name] == _names(node)[node.name]
    ]
    # an allowed name that gains a caller leaves the list, so the list stays exact
    assert sorted(uncalled) == sorted(ALLOWED_UNCALLED)


def _sets(call, name, index, param):
    """True iff the call is to `name` and sets `param`, by keyword or as positional `index`."""
    if getattr(call.func, "id", getattr(call.func, "attr", None)) != name:
        return False
    # a **mapping or *sequence argument may set any parameter
    return (
        any(kw.arg in (param, None) for kw in call.keywords)
        or any(isinstance(a, ast.Starred) for a in call.args)
        or (index is not None and len(call.args) > index)
    )


def test_every_defaulted_parameter_is_set_by_a_caller_in_the_package():
    trees = _trees()
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unset = []
    for name, node in _public(trees):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        # a method's caller passes self or cls implicitly
        bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        defaulted = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
        defaulted += [
            (p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        unset += [
            f"{name}({param})"
            for param, index in defaulted
            if not any(_sets(call, node.name, index, param) for call in calls)
        ]
    # an allowed option that gains a caller leaves the list, so the list stays exact
    assert sorted(unset) == sorted(ALLOWED_UNSET)


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []


def test_runtime_imports_are_stdlib_only():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.stem}: {n}" for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# the left operands of the `Path` joins of the scan cache file
PATH_JOINS = {"cli": {"Path.home()", "Path.home() / '.cache'", "cache_dir()"}}


def test_every_division_is_exact():
    """True division of two ints gives a float, so every `/` in the package
    divides a `Fraction(...)`, except the `Path` joins in `cli`."""
    inexact = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                left = node.left
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                left = node.target
            else:
                continue
            fraction = isinstance(left, ast.Call) and getattr(left.func, "id", None) == "Fraction"
            if not fraction and ast.unparse(left) not in PATH_JOINS.get(path.stem, ()):
                inexact.append(f"{path.stem}:{node.lineno}: {ast.unparse(node)}")
    assert inexact == []
