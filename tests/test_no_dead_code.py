"""Every function, method and defaulted parameter of the package has a caller.

A private (single leading underscore) top-level function, class or
method can only be reached from inside the package, so one that nothing
in src/qperiods references outside its own body is dead code.

A public top-level function, class or method must be referenced outside
its own body by another part of the package, by a demo, by the benchmark
(perfbench/) or by a script (scripts/).  Being re-exported from
__init__.py does not count, and neither does a test: a helper that only
tests call (an oracle, a brute-force search, a dumper no command needs)
belongs in tests/references.py or in the test file that uses it, not in
the package.  ALLOWED could list such a name with the test file that
calls it and what it serves there, and it is empty; an entry whose name
is gone, has found a caller, or is no longer called by its test is
stale and fails the guard too.

Every parameter with a default of a package function or method must
be passed, by position or by keyword, by some call in the package or in
the users; the function's own recursive calls count.  The few that only
tests pass are listed in PASSED_BY_TESTS with the test file that passes
them, and a stale entry fails the guard as above.

Names are matched syntactically.  A bare name or an attribute of that
name counts as a reference to a top-level function or class.  A method
counts as referenced only by an attribute that is called or passed on
as an argument, so that neither a local variable nor a bare read of an
attribute, such as a parsed option args.trace, keeps alive the method
of its name; a property counts on any read of its attribute.  A
classmethod or staticmethod counts only where it is called or passed on
through its own class name or cls, so that Matrix.zero(...) does not
keep alive another class's zero.  A call counts for every function or
method of its name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qperiods"
TESTS = ROOT / "tests"
USERS = ("demos", "perfbench", "scripts")

# module.name -> (test file that calls it, what it is kept for); empty,
# because the oracles that only tests call live in tests/references.py
ALLOWED = {}

# module.function.parameter -> (test file that passes it, what for)
PASSED_BY_TESTS = {
    "exactlin.Matrix.zero.zero": (
        "test_trusted_paths.py",
        "an int zero, which the trusted constructor must still promote"),
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
    """(name, line, how, owner) of each name in tree: how is "name" for a
    bare name, "use" for an attribute that is called or passed on as an
    argument, and "read" for any other attribute; owner is the bare name
    an attribute is read from, and None otherwise."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            used.add(id(node.func))
            used.update(id(a.value if isinstance(a, ast.Starred) else a)
                        for a in node.args)
            used.update(id(k.value) for k in node.keywords)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name", None
        elif isinstance(node, ast.Attribute):
            owner = (node.value.id if isinstance(node.value, ast.Name)
                     else None)
            yield (node.attr, node.lineno,
                   "use" if id(node) in used else "read", owner)


def _reference_list(trees: dict) -> list:
    return [(name, fname, line, how, owner) for fname, tree in trees.items()
            for name, line, how, owner in _references(tree)]


def _decorated(node, *names: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id in names
               for d in node.decorator_list)


def _referenced(label: str, node, fname: str, refs: list) -> bool:
    """Whether refs name node anywhere outside node's own body: a method
    (label Class.method) only by an attribute that is used, or by any
    attribute if it is a property; a classmethod or staticmethod only by
    an attribute that is used on its class's name or on cls."""
    owners = None
    if "." not in label:
        counts = {"name", "use", "read"}
    elif _decorated(node, "property"):
        counts = {"use", "read"}
    else:
        counts = {"use"}
        if _decorated(node, "classmethod", "staticmethod"):
            owners = {label.split(".")[0], "cls"}
    inside = range(node.lineno, node.end_lineno + 1)
    return any(name == node.name and how in counts
               and (owners is None or owner in owners)
               and not (ref_file == fname and line in inside)
               for name, ref_file, line, how, owner in refs)


def dead_definitions(trees: dict) -> list:
    """'file:line name' of each private definition in trees (file name ->
    parsed module) that nothing references outside its own body."""
    refs = _reference_list(trees)
    return [f"{fname}:{node.lineno} {node.name}"
            for fname, tree in trees.items()
            for label, node in _definitions(tree, _is_private)
            if not _referenced(label, node, fname, refs)]


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
            if _referenced(label, node, fname, refs):
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
                ref == name for ref, *_ in _references(tests[test_file])):
            problems.append(f"stale entry {key}: {test_file} does not "
                            f"call it")
    return problems


def _defaulted_parameters(tree: ast.Module):
    """(label, called name, position, parameter) of each parameter with a
    default of each top-level function and method in tree.  The called
    name of __init__ is its class; position counts the arguments a call
    passes positionally (not self or cls), and is None for keyword-only
    parameters."""
    for label, node in _definitions(tree, lambda name: True):
        if isinstance(node, ast.ClassDef):
            continue
        cls, _, name = label.rpartition(".")
        static = _decorated(node, "staticmethod")
        bound = 1 if cls and not static else 0
        called = cls if name == "__init__" else name
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield label, called, i - bound, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield label, called, None, arg.arg


def _passes(call: ast.Call, position, param: str) -> bool:
    """Whether call may set the parameter; a starred argument or a
    **mapping may set any."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def _calls(trees: dict) -> dict:
    """Called name -> the calls of that name in trees."""
    out: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                out.setdefault(name, []).append(node)
    return out


def _passed(calls: dict, called: str, position, param: str) -> bool:
    return any(_passes(c, position, param) for c in calls.get(called, ()))


def unpassed_parameters(package: dict, users: dict, tests: dict,
                        allowed: dict) -> list:
    """The defaulted parameters of package (file name -> parsed module)
    that no call in package or users passes, unless allowed; and the
    allowed entries that are stale.

    allowed maps module.function.parameter to (test file, reason), and
    the test file must be a key of tests.
    """
    calls = _calls({**package, **users})
    problems, unpassed = [], {}
    for fname, tree in package.items():
        module = fname[:-len(".py")]
        for label, called, position, param in _defaulted_parameters(tree):
            if _passed(calls, called, position, param):
                continue
            key = f"{module}.{label}.{param}"
            unpassed[key] = (called, position, param)
            if key not in allowed:
                problems.append(f"{fname} {label}({param}) is never passed")
    for key, (test_file, _) in sorted(allowed.items()):
        if key not in unpassed:
            problems.append(f"stale entry {key}: passed, or no such "
                            f"parameter")
        elif test_file not in tests or not _passed(
                _calls({test_file: tests[test_file]}), *unpassed[key]):
            problems.append(f"stale entry {key}: {test_file} does not "
                            f"pass it")
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


def test_every_defaulted_parameter_is_passed_or_set_by_a_test():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    users = _parse((path for d in USERS
                    for path in sorted((ROOT / d).glob("*.py"))),
                   key=lambda path: str(path.relative_to(ROOT)))
    tests = _parse(sorted(TESTS.glob("test_*.py")))
    problems = unpassed_parameters(package, users, tests, PASSED_BY_TESTS)
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


def test_a_local_variable_does_not_use_the_method_it_shadows():
    source = ("class M:\n    def row(self):\n        return 1\n\n"
              "    def _cell(self):\n        return 2\n\n"
              "    def column(self):\n        return 3\n\n"
              "def rows(m):\n    row = _cell = 0\n    return row, _cell, M()\n")
    package = {"a.py": ast.parse(source)}
    users = {"demos/d.py": ast.parse(
        "from qperiods.a import rows\nrow = rows(0)\nrow.column()\n")}
    assert dead_definitions(package) == ["a.py:5 _cell"]
    assert unused_public(package, users, {}, {}) == ["a.py:2 M.row is unused"]


def test_a_bare_read_does_not_use_the_method_of_its_name():
    source = ("class M:\n    def trace(self):\n        return 1\n\n"
              "    def apply(self, f):\n        return f\n\n"
              "    def _cell(self):\n        return 2\n\n"
              "    @property\n    def size(self):\n        return 3\n\n"
              "    def rows(self):\n        return 4\n\n"
              "def use(m, args):\n"
              "    if args.trace and m._cell:\n        return m.size\n"
              "    return M().apply(m.rows)\n")
    package = {"a.py": ast.parse(source)}
    users = {"perfbench/run.py": ast.parse(
        "from qperiods.a import use\nuse(0, 0)\n")}
    # the reads of trace and _cell do not count, the read of the
    # property size does, and rows is passed on as an argument
    assert dead_definitions(package) == ["a.py:8 _cell"]
    assert unused_public(package, users, {}, {}) == [
        "a.py:2 M.trace is unused"]


def test_a_classmethod_counts_only_through_its_own_class():
    source = ("class M:\n    @classmethod\n    def zero(cls):\n"
              "        return cls.unit()\n\n"
              "    @classmethod\n    def unit(cls):\n        return cls()\n\n"
              "    def vec(self):\n        return 1\n\n"
              "class N:\n    @staticmethod\n    def zero():\n        return 0\n")
    package = {"a.py": ast.parse(source)}
    # N.zero() does not call M.zero, and m.zero() names no class; cls
    # does, and a plain method counts on any call of its name
    users = {"demos/d.py": ast.parse(
        "from qperiods.a import M, N\nN.zero()\nm = M()\nm.zero()\n"
        "m.vec()\nM.zero.__name__\n")}
    assert unused_public(package, users, {}, {}) == ["a.py:3 M.zero is unused"]


def test_the_guard_sees_unpassed_parameters():
    source = ("def walk(x, depth=0, *, cap=8):\n"
              "    return walk(x, depth + 1) if depth < 3 else x\n\n"
              "def spread(*vectors, scale=1, **extra):\n    return vectors\n\n"
              "class Box:\n    def __init__(self, size, fill=0):\n"
              "        self.size = size\n\n"
              "    def grow(self, by=1, twice=False):\n        return self\n\n"
              "    @staticmethod\n    def empty(size=0, fill=None):\n"
              "        return Box(size)\n\n"
              "    @classmethod\n    def of(cls, size, fill=None):\n"
              "        return cls(size)\n")
    package = {"a.py": ast.parse(source)}
    # walk's depth is set only by its own recursion, Box's fill by
    # position, grow's by by keyword; a starred argument or a **mapping
    # may set any parameter
    users = {"demos/d.py": ast.parse(
        "from qperiods.a import Box, spread\nBox(1, 2).grow(by=2)\n"
        "Box.empty(3)\nBox.of(*sizes)\nspread(**options)\n")}
    tests = {"test_a.py": ast.parse(
        "from qperiods.a import walk, Box\nwalk(1, cap=2)\n"
        "Box(1).grow(1, True)\n")}
    allowed = {"a.walk.cap": ("test_a.py", "the cap"),
               "a.Box.grow.twice": ("test_b.py", "no such test file"),
               "a.Box.empty.fill": ("test_a.py", "not passed by test_a"),
               "a.Box.grow.by": ("test_a.py", "passed by a demo now"),
               "a.gone.param": ("test_a.py", "deleted since")}
    assert unpassed_parameters(package, users, tests, allowed) == [
        "stale entry a.Box.empty.fill: test_a.py does not pass it",
        "stale entry a.Box.grow.by: passed, or no such parameter",
        "stale entry a.Box.grow.twice: test_b.py does not pass it",
        "stale entry a.gone.param: passed, or no such parameter",
    ]
    assert unpassed_parameters(package, users, tests, {}) == [
        "a.py walk(cap) is never passed",
        "a.py Box.grow(twice) is never passed",
        "a.py Box.empty(fill) is never passed",
    ]
