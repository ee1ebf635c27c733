"""Every function and method of the package has a caller.

A private (single leading underscore) top-level function, class or
method can only be reached from inside the package, so one that nothing
in src/qperiods references outside its own body is dead code.

A public top-level function, class or method must be referenced outside
its own body by another part of the package, by a demo, by the benchmark
(perfbench/) or by a script (scripts/).  Being re-exported from
__init__.py does not count.  The few public names that only tests call
are listed in ALLOWED with the test file that calls them and what they
serve there; an entry whose name is gone, has found a caller, or is no
longer called by its test is stale and fails the guard too.

Names are matched syntactically: a bare name or an attribute of that
name counts as a reference.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qperiods"
TESTS = ROOT / "tests"
USERS = ("demos", "perfbench", "scripts")

# module.name -> (test file that calls it, what it is kept for)
ALLOWED = {
    "exactlin.solve": (
        "test_quivalg.py",
        "one solve per product: the oracle for end_algebra's structure "
        "constants"),
    "onemotive.matrix_column_module": (
        "test_onemotive.py",
        "the column modules (Q^n)^k of the matrix algebra, the paper's "
        "frozen weight-graded example and a hom_dim oracle"),
    "periods.evaluate_coefficient": (
        "test_acceptance.py",
        "tr(rho(u) C): the check that summing formal periods commutes "
        "with evaluation"),
    "quivalg.direct_sum_with_maps": (
        "test_acceptance.py",
        "a sum with its inclusions and projections, for the same "
        "additivity check"),
    "periods.check_power_identity": (
        "test_acceptance.py",
        "the paper's identity P(M^n) = P(M)"),
    "periods.check_absorb_identity": (
        "test_acceptance.py",
        "the paper's absorption of subobjects and quotients by direct sum"),
    "periods.check_orthogonal_additivity": (
        "test_acceptance.py",
        "the paper's additivity over Hom-orthogonal summands"),
    "periods.pushout_reduction": (
        "test_acceptance.py",
        "the paper's pushout reduction of a two-sided power sequence"),
    "serialize.comparison_to_data": (
        "test_serialize.py",
        "the dumper that round-trips the comparison-point format"),
    "serialize.structure_algebra_to_data": (
        "test_serialize.py",
        "the dumper that round-trips the structure-constant format"),
    "yoga.bounded_extension_search": (
        "test_acceptance.py",
        "the brute-force search that universal_extension is extremal "
        "against"),
    "yoga.class_c_explore": (
        "test_acceptance.py",
        "the class C exploration that finds no realizing submodule on "
        "the refuted a2/p1"),
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module, keep):
    """(label, node) of each top-level function or class and each method
    whose name passes keep; a method's label is Class.method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs + (ast.ClassDef,)) and keep(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, funcs) and keep(member.name):
                    yield f"{node.name}.{member.name}", member


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _reference_list(trees: dict) -> list:
    return [(name, fname, line) for fname, tree in trees.items()
            for name, line in _references(tree)]


def _referenced(node, fname: str, refs: list) -> bool:
    """Whether refs name node anywhere outside node's own body."""
    return any(name == node.name and not (
        ref_file == fname and node.lineno <= line <= node.end_lineno)
        for name, ref_file, line in refs)


def dead_definitions(trees: dict) -> list:
    """'file:line name' of each private definition in trees (file name ->
    parsed module) that nothing references outside its own body."""
    refs = _reference_list(trees)
    return [f"{fname}:{node.lineno} {node.name}"
            for fname, tree in trees.items()
            for _, node in _definitions(tree, _is_private)
            if not _referenced(node, fname, refs)]


def unused_public(package: dict, users: dict, tests: dict,
                  allowed: dict) -> list:
    """The public names of package (file name -> parsed module) that no
    other part of it and none of users reference, unless allowed; and
    the allowed entries that are stale.

    __init__.py's references are ignored.  allowed maps module.name to
    (test file, reason), and the test file must be a key of tests.
    """
    refs = _reference_list({f: t for f, t in package.items()
                            if f != "__init__.py"})
    refs += _reference_list(users)
    problems, unused = [], set()
    for fname, tree in package.items():
        module = fname[:-len(".py")]
        for label, node in _definitions(tree, _is_public):
            if _referenced(node, fname, refs):
                continue
            key = f"{module}.{label}"
            unused.add(key)
            if key not in allowed:
                problems.append(f"{fname}:{node.lineno} {label} is unused")
    for key, (test_file, _) in sorted(allowed.items()):
        name = key.rsplit(".", 1)[1]
        if key not in unused:
            problems.append(f"stale entry {key}: used, or no such name")
        elif test_file not in tests or not any(
                ref == name for ref, _ in _references(tests[test_file])):
            problems.append(f"stale entry {key}: {test_file} does not "
                            f"call it")
    return problems


def _parse(paths, key=lambda path: path.name) -> dict:
    return {key(path): ast.parse(path.read_text(), str(path))
            for path in paths}


def test_every_private_function_and_method_is_referenced():
    trees = _parse(sorted(PACKAGE.glob("*.py")))
    assert len(trees) > 5
    dead = dead_definitions(trees)
    assert not dead, "unreferenced private definitions: " + ", ".join(dead)


def test_every_public_name_has_a_user_or_an_oracle_test():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    users = _parse((path for d in USERS
                    for path in sorted((ROOT / d).glob("*.py"))),
                   key=lambda path: str(path.relative_to(ROOT)))
    tests = _parse(sorted(TESTS.glob("test_*.py")))
    assert len(package) > 5 and len(users) > 10
    problems = unused_public(package, users, tests, ALLOWED)
    assert not problems, "; ".join(problems)


def test_the_guard_sees_dead_definitions():
    source = ("def _used():\n    return 1\n\n"
              "def _recursive():\n    return _recursive()\n\n"
              "class C:\n    def _method(self):\n        return _used()\n\n"
              "    def __init__(self):\n        pass\n")
    other = "from a import C\nC()._helper_elsewhere\n"
    trees = {"a.py": ast.parse(source), "b.py": ast.parse(other)}
    assert dead_definitions(trees) == ["a.py:4 _recursive", "a.py:8 _method"]


def test_the_guard_sees_unused_public_names():
    source = ("def unused():\n    return unused()\n\n"
              "def oracle():\n    return 1\n\n"
              "def exported():\n    return 2\n\n"
              "class Timer:\n    def timed(self):\n        return 3\n\n"
              "    def untimed(self):\n        return 4\n\n"
              "def used():\n    return Timer()\n")
    init = "from .a import exported, oracle, unused, used\n__all__ = [exported]\n"
    package = {"__init__.py": ast.parse(init), "a.py": ast.parse(source)}
    # the benchmark's only call of Timer.timed is a use; a caller that is
    # neither the package nor a user, such as a test, is not
    users = {"perfbench/run.py": ast.parse(
        "from qperiods.a import used\nused().timed()\n")}
    tests = {"test_a.py": ast.parse(
        "from qperiods.a import oracle\noracle()\nexported()\n")}
    allowed = {"a.oracle": ("test_a.py", "the oracle"),
               "a.used": ("test_a.py", "has a caller now"),
               "a.gone": ("test_a.py", "deleted since")}
    assert unused_public(package, users, tests, allowed) == [
        "a.py:1 unused is unused",
        "a.py:7 exported is unused",
        "a.py:14 Timer.untimed is unused",
        "stale entry a.gone: used, or no such name",
        "stale entry a.used: used, or no such name",
    ]
    allowed = {"a.untested": ("test_a.py", "an oracle no test calls"),
               "a.exported": ("test_b.py", "no such test file")}
    package["a.py"] = ast.parse(source.replace("def oracle", "def untested"))
    problems = unused_public(package, users, tests, allowed)
    assert "stale entry a.exported: test_b.py does not call it" in problems
    assert "stale entry a.untested: test_a.py does not call it" in problems
