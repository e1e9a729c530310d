"""Source hygiene: every name a library module or a test file imports is
used there, every module-level private function is referenced by some
module, every public function, class and method is read by the package,
the acceptance criteria or the benchmark, every defaulted parameter of
one is passed by a call there, every method the benchmark traces is
defined in its class's own body, no function imports a package module
locally, no function takes the cube it runs on or a random generator or
is only ``raise NotImplementedError``, every dataclass ``to_dict`` is
built from ``asdict(self)``, no module but ``grid`` checks an array's
shape against its grid, ``functionals`` reads its random generator only
in its word stream, and no module builds full-grid coordinate
temporaries, whole multi-axis spectra or per-element Python calls."""

import ast
import importlib
from pathlib import Path

import pytest

import poincarelab

SRC = Path(poincarelab.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"


def unused_imports(source):
    """Names bound by import statements that nothing else in the module
    reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", MODULES + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_names():
    src = ("import os\nimport numpy as np\nfrom x import a, b\n"
           "from __future__ import annotations\nprint(np.pi, a)\n")
    assert unused_imports(src) == [(1, "os"), (3, "b")]


def unused_private_functions(sources):
    """(module, name) of each module-level ``_name`` function that no
    module in ``sources`` (module name -> source text) reads by name or as
    an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((m, name) for m, name in defined if name not in used)


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text() for p in MODULES}
    assert unused_private_functions(sources) == []


def test_detector_flags_unreferenced_private_functions():
    sources = {"a.py": "def _used():\n    pass\n\n\ndef _stale():\n"
                       "    pass\n\n\ndef __dunder__():\n    pass\n",
               "b.py": "from . import a\na._used()\n"}
    assert unused_private_functions(sources) == [("a.py", "_stale")]


def _names_read(sources):
    """(bare names, attributes) read in ``sources`` (name -> source
    text)."""
    names, attrs = set(), set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def unread_public_names(defining, reading):
    """(module, name) of each public module-level function and class in
    ``defining`` that no source in ``reading`` reads by name or as an
    attribute, and of each public method of such a class (named
    ``Class.method``) that none reads as an attribute: a local variable of
    the method's name does not call it.  An import alone is not a read."""
    names, attrs = _names_read(reading)
    unread = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") \
                    and node.name not in names | attrs:
                unread.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                unread += [(module, f"{node.name}.{item.name}")
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_")
                           and item.name not in attrs]
    return sorted(unread)


def counts_as_reader(path):
    """Whether reads in ``path`` keep a public name: a package module, the
    acceptance criteria or their fixtures (``tests/conftest.py``), or a
    benchmark script, which reads ``GridFunction.save``.  A unit-test file
    does not count, so a name only unit tests read is flagged."""
    path = Path(path)
    if path.parent.name == "tests":
        return path.name in ("test_acceptance.py", "conftest.py")
    return path.parent.name in ("poincarelab", "perfbench")


def reader_sources():
    """Path -> source text of every file that ``counts_as_reader``."""
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) \
        + sorted(PERFBENCH.glob("*.py"))
    return {str(p): p.read_text() for p in files if counts_as_reader(p)}


def test_every_public_name_is_read():
    defining = {p.name: p.read_text() for p in MODULES}
    assert unread_public_names(defining, reader_sources()) == []


def test_detector_flags_unread_public_names():
    defining = {"a.py": "def used():\n    pass\n\n\ndef stale():\n    pass\n\n\n"
                        "def _private():\n    pass\n\n\nclass K:\n"
                        "    def run(self):\n        pass\n\n"
                        "    def idle(self):\n        pass\n\n"
                        "    def __init__(self):\n        pass\n\n"
                        "    def up(self):\n        pass\n\n\n"
                        "def tested():\n    pass\n"}
    files = {"src/poincarelab/b.py": "from a import K, stale, used\nused()\n"
                                     "up = 1\nprint(up)\n",
             "tests/test_acceptance.py": "K().run()\n",
             "tests/test_a.py": "from a import tested\ntested()\nK().idle()\n",
             "tests/oracles.py": "tested()\n"}
    reading = {p: s for p, s in files.items() if counts_as_reader(p)}
    assert sorted(reading) == ["src/poincarelab/b.py",
                               "tests/test_acceptance.py"]
    assert counts_as_reader("perfbench/run.py")
    # a bare name ``up`` is a local variable, not a call of K.up
    assert unread_public_names(defining, reading) == [("a.py", "K.idle"),
                                                      ("a.py", "K.up"),
                                                      ("a.py", "stale"),
                                                      ("a.py", "tested")]


def local_package_imports(source):
    """(line, function) of each import of a package module (a relative
    import, or one of ``poincarelab``) inside a function body."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else None
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if names is None or any(n.split(".")[0] == "poincarelab"
                                    for n in names):
                found.append((node.lineno, fn.name))
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_package_imports(path):
    assert local_package_imports(path.read_text()) == []


def test_detector_flags_function_local_package_imports():
    src = ("import io\nfrom . import grid\n\n\ndef f():\n    import io\n"
           "    from .operators import g\n    return g\n\n\n"
           "def h():\n    import poincarelab.grid\n"
           "    from numpy import pi\n    return pi\n")
    assert local_package_imports(src) == [(7, "f"), (12, "h")]


def _defaulted_params(fn, method):
    """(position or None, name) of each parameter of ``fn`` with a default:
    the position counts the arguments a call spells out, so a method's
    ``self`` or ``cls`` is not counted; keyword-only parameters have no
    position."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    found = [(i - int(method), a.arg) for i, a in enumerate(args) if i >= first]
    found += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                            fn.args.kw_defaults)
              if d is not None]
    return found


def unpassed_defaults(defining, calling):
    """(module, name, parameter) of each defaulted parameter of a public
    module-level function, or of a method of a public class (``__init__``
    answering to calls of the class), that no call in ``calling`` passes by
    keyword or by position.  Calls are matched by the called name alone,
    and one that unpacks ``*args`` or ``**kwargs`` passes everything it
    could."""
    calls = {}
    for source in calling.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else \
                    fn.attr if isinstance(fn, ast.Attribute) else None
                calls.setdefault(name, []).append(node)

    def passed(name, pos, param):
        for call in calls.get(name, []):
            if any(k.arg in (param, None) for k in call.keywords):
                return True
            if pos is not None and (
                    len(call.args) > pos
                    or any(isinstance(a, ast.Starred) for a in call.args)):
                return True
        return False

    unpassed = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                targets = [(node.name, node.name, node, False)]
            elif isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                targets = [(f"{node.name}.{item.name}",
                            node.name if item.name == "__init__"
                            else item.name, item, True)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and (item.name == "__init__"
                                or not item.name.startswith("_"))]
            else:
                continue
            for label, called, fn, method in targets:
                unpassed += [(module, label, param)
                             for pos, param in _defaulted_params(fn, method)
                             if not passed(called, pos, param)]
    return sorted(unpassed)


# defaults no reader passes yet: the CLI passes them once its poincare
# command takes a second weight, an alpha and a functional (ROADMAP item 5)
UNPASSED_DEFAULTS_KEPT = {("inequalities.py", "check_inequality", "v"),
                          ("inequalities.py", "check_inequality", "alpha"),
                          ("inequalities.py", "check_inequality",
                           "a_functional")}


def test_every_default_is_passed_somewhere():
    defining = {p.name: p.read_text() for p in MODULES}
    unpassed = unpassed_defaults(defining, reader_sources())
    assert sorted(set(unpassed) - UNPASSED_DEFAULTS_KEPT) == []
    # an exemption that some reader now passes is stale
    assert sorted(UNPASSED_DEFAULTS_KEPT - set(unpassed)) == []


def test_detector_flags_unpassed_defaults():
    defining = {"a.py": "def f(x, k=1, j=2, *, opt=None):\n    pass\n\n\n"
                        "def _g(x, k=1):\n    pass\n\n\nclass K:\n"
                        "    def __init__(self, s=0):\n        pass\n\n"
                        "    def run(self, t=1, u=2):\n        pass\n\n"
                        "    @classmethod\n    def make(cls, v=1):\n"
                        "        pass\n\n\n"
                        "def h(x, unit=0, bench=0):\n    pass\n"}
    files = {"src/poincarelab/b.py": "f(1, 2)\nf(0, opt=3)\nK().run(5)\n"
                                     "K.make()\n",
             "src/poincarelab/c.py": "args = ()\nkw = {}\nK(*args)\n"
                                     "K.make(**kw)\n",
             "tests/test_a.py": "h(0, unit=1)\n",
             "perfbench/run.py": "h(0, bench=1)\n"}
    calling = {p: s for p, s in files.items() if counts_as_reader(p)}
    # a default only a unit test passes is flagged; one only the
    # benchmark passes is not
    assert unpassed_defaults(defining, calling) == [("a.py", "K.run", "u"),
                                                    ("a.py", "f", "j"),
                                                    ("a.py", "h", "unit")]


def functions_where(sources, test):
    """(module, name) of each function or method in ``sources`` (module
    name -> source text), nested ones included and named ``outer.inner``,
    whose definition node passes ``test``."""
    found = []

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if test(child):
                    found.append((module, prefix + child.name))
                inner = prefix + child.name + "."
            elif isinstance(child, ast.ClassDef):
                inner = prefix + child.name + "."
            visit(child, module, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module, "")
    return sorted(found)


def functions_taking(sources, param):
    """The functions of ``sources`` (as in ``functions_where``) that have
    a parameter named ``param``."""

    def takes(fn):
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs \
            + [x for x in (a.vararg, a.kwarg) if x is not None]
        return any(x.arg == param for x in params)

    return functions_where(sources, takes)


def cube_argument_report(sources, kept):
    """(flagged, stale): the functions taking a parameter ``Q`` (the cube
    their computation runs on, where the library runs on the root cube of
    its input grid and a sub-cube is made the input grid) whose name
    ``kept`` does not exempt, and the names in ``kept`` that no function
    needs."""
    found = functions_taking(sources, "Q")
    names = {name for _, name in found}
    return ([(m, name) for m, name in found if name not in kept],
            sorted(kept - names))


# sdp_check keeps its cube argument, and refuses any cube but the root,
# only for the benchmark's call, which passes it by position and binds it
# by name; it keeps its w_masses and p for that call too, and refuses any
# but the functional's own (ROADMAP items 1 and 20)
CUBE_ARGUMENT_KEPT = {"sdp_check"}


def test_no_function_takes_the_cube_it_runs_on():
    sources = {p.name: p.read_text() for p in MODULES}
    assert cube_argument_report(sources, CUBE_ARGUMENT_KEPT) == ([], [])


def test_detector_flags_cube_parameters():
    sources = {"a.py": "def f(x, Q):\n    def inner(*, Q=None):\n"
                       "        pass\n\n\ndef g(q, level):\n    pass\n\n\n"
                       "class K:\n    def level_values(self, Q, level):\n"
                       "        pass\n\n    def eval(self, q):\n"
                       "        pass\n",
               "b.py": "def sdp_check(a, Q, depth):\n    pass\n\n\n"
                       "def run(*Q):\n    pass\n"}
    assert functions_taking(sources, "Q") == [("a.py", "K.level_values"),
                                        ("a.py", "f"), ("a.py", "f.inner"),
                                        ("b.py", "run"),
                                        ("b.py", "sdp_check")]
    # an exempt name is not flagged; an exemption nothing needs is stale
    assert cube_argument_report(sources, {"sdp_check", "gone"}) == (
        [("a.py", "K.level_values"), ("a.py", "f"), ("a.py", "f.inner"),
         ("b.py", "run")], ["gone"])


def test_no_function_takes_a_generator():
    # each seeded draw builds its generator from an integer seed, so no
    # caller shares a generator with the library
    sources = {p.name: p.read_text() for p in MODULES}
    assert functions_taking(sources, "rng") == []


def test_detector_flags_generator_parameters():
    sources = {"a.py": "class _Stream:\n    def __init__(self, rng):\n"
                       "        pass\n\n\n"
                       "def _sampled(scores, trials, rng):\n    pass\n\n\n"
                       "def draws(seed):\n    rng = default_rng(seed)\n\n"
                       "    def below(R, *, rng=rng):\n        pass\n"
                       "    return below, rng\n",
               "b.py": "def probe(seed, rngs, **rng):\n    pass\n"}
    # a local variable ``rng`` is not a parameter; one of a nested
    # function, keyword-only or ``**rng``, is
    assert functions_taking(sources, "rng") == [
        ("a.py", "_Stream.__init__"), ("a.py", "_sampled"),
        ("a.py", "draws.below"), ("b.py", "probe")]


GENERATOR_NAMES = ("default_rng", "random_raw", "bit_generator")


def generator_reads(source, owner):
    """(line, name) of each ``default_rng``, ``random_raw`` or
    ``bit_generator`` named in ``source``, as a name, an attribute or an
    import, outside the body of the class ``owner``: the one place that
    keeps the draws equal to scalar ``Generator.integers`` draws bit for
    bit."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            within = inside or (isinstance(child, ast.ClassDef)
                                and child.name == owner)
            name = child.attr if isinstance(child, ast.Attribute) else \
                child.id if isinstance(child, ast.Name) else \
                child.name if isinstance(child, ast.alias) else None
            if name in GENERATOR_NAMES and not within:
                found.append((child.lineno, name))
            visit(child, within)

    visit(ast.parse(source), False)
    return sorted(found)


def test_only_the_word_stream_reads_the_generator():
    source = (SRC / "functionals.py").read_text()
    assert "class _WordStream" in source
    assert generator_reads(source, "_WordStream") == []


def test_detector_flags_generator_reads_outside_the_stream():
    src = ("import numpy as np\nfrom numpy.random import default_rng\n\n\n"
           "class _WordStream:\n    def __init__(self, seed):\n"
           "        self._bitgen = np.random.default_rng(seed).bit_generator\n"
           "\n    def _raw(self):\n"
           "        return self._bitgen.random_raw(8)\n\n\n"
           "def draws(seed):\n    \"\"\"Reads default_rng words.\"\"\"\n"
           "    bitgen = default_rng(seed).bit_generator\n"
           "    return bitgen.random_raw\n\n\n"
           "class Other:\n    random_raw = None\n")
    # a docstring naming it is no read; the stream class's own reads pass
    assert generator_reads(src, "_WordStream") == [
        (2, "default_rng"), (15, "bit_generator"), (15, "default_rng"),
        (16, "random_raw"), (20, "random_raw")]


def stub_functions(sources):
    """The functions of ``sources`` (as in ``functions_where``) whose body,
    past a docstring, is only ``raise NotImplementedError``, called or not:
    an abstract hook, where one class should do the work."""

    def stub(fn):
        body = fn.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Raise):
            return False
        exc = body[0].exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"

    return functions_where(sources, stub)


def test_no_function_is_only_raise_not_implemented():
    sources = {p.name: p.read_text() for p in MODULES}
    assert stub_functions(sources) == []


def test_detector_flags_not_implemented_stubs():
    sources = {"a.py": "class Base:\n    def eval(self, q):\n"
                       "        raise NotImplementedError\n\n"
                       "    def level(self, k):\n        \"\"\"Doc.\"\"\"\n"
                       "        raise NotImplementedError(\"level\")\n\n"
                       "    def mass(self, q):\n        if q:\n"
                       "            raise NotImplementedError\n"
                       "        return 0.0\n\n\n"
                       "def outer():\n    def inner():\n"
                       "        raise NotImplementedError()\n"
                       "    return inner\n",
               "b.py": "def f(x):\n    raise ValueError(x)\n\n\n"
                       "def g():\n    \"\"\"Only a docstring.\"\"\"\n\n\n"
                       "def h():\n    raise NotImplementedError\n"
                       "    return 1\n"}
    # a raise under a condition, another exception, or a raise followed by
    # more statements is not a stub
    assert stub_functions(sources) == [("a.py", "Base.eval"),
                                       ("a.py", "Base.level"),
                                       ("a.py", "outer.inner")]


def test_traced_methods_are_defined_in_their_class_body():
    # the benchmark wraps ``cls.__dict__[method]``; an inherited method
    # would be missing there
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    methods = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "METHODS"
                           for t in node.targets))
    assert methods
    for module, cls, method in methods:
        owner = getattr(importlib.import_module(f"poincarelab.{module}"), cls)
        assert method in owner.__dict__, (module, cls, method)


def _called_name(node):
    """The name a decorator or call node calls or names: ``f`` for ``f``,
    ``f(...)``, ``m.f`` and ``m.f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else \
        node.id if isinstance(node, ast.Name) else None


def to_dicts_not_from_fields(sources):
    """(module, class) of each dataclass in ``sources`` (module name ->
    source text) whose ``to_dict`` does not call ``asdict(self)``: one
    that lists the fields by hand states each of them a second time."""
    found = []
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef) or not any(
                    _called_name(d) == "dataclass"
                    for d in cls.decorator_list):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "to_dict" \
                        and not any(isinstance(c, ast.Call)
                                    and _called_name(c) == "asdict"
                                    and [getattr(a, "id", None)
                                         for a in c.args] == ["self"]
                                    for c in ast.walk(fn)):
                    found.append((module, cls.name))
    return sorted(found)


def test_every_to_dict_is_built_from_the_dataclass_fields():
    sources = {p.name: p.read_text() for p in MODULES}
    assert to_dicts_not_from_fields(sources) == []


def test_detector_flags_to_dicts_listing_fields_by_hand():
    sources = {"a.py": "@dataclass\nclass Hand:\n    x: float\n\n"
                       "    def to_dict(self):\n"
                       "        return {\"x\": self.x}\n\n\n"
                       "@dataclass(frozen=True)\nclass Other:\n"
                       "    x: float\n\n    def to_dict(self):\n"
                       "        return asdict(self.x)\n\n\n"
                       "@dataclass\nclass Fields:\n    x: float\n\n"
                       "    def to_dict(self):\n"
                       "        return dict(asdict(self), x=str(self.x))\n",
               "b.py": "@dataclasses.dataclass(frozen=True)\nclass Dotted:\n"
                       "    x: float\n\n    def to_dict(self):\n"
                       "        d = dataclasses.asdict(self)\n"
                       "        return d\n\n\n"
                       "class Plain:\n    def to_dict(self):\n"
                       "        return {\"x\": self.x}\n"}
    # a plain class is not a dataclass; asdict of anything but self lists
    # no fields of its own
    assert to_dicts_not_from_fields(sources) == [("a.py", "Hand"),
                                                 ("a.py", "Other")]


def shape_checks(source):
    """(line, what) of each ``np.shape`` call in ``source`` (any call of a
    name or attribute ``shape``) and of each ``==`` or ``!=`` comparison
    with a ``.shape`` operand: the check of a cell array against its grid's
    shape, which ``grid`` alone makes.  An axis length such as
    ``x.shape[0]`` is not a shape."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) == "shape":
            found.append((node.lineno, "shape call"))
        elif isinstance(node, ast.Compare) \
                and any(isinstance(op, (ast.Eq, ast.NotEq))
                        for op in node.ops) \
                and any(isinstance(x, ast.Attribute) and x.attr == "shape"
                        for x in [node.left, *node.comparators]):
            found.append((node.lineno, "shape compared"))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_only_grid_checks_an_array_against_its_grid(path):
    assert shape_checks(path.read_text()) == []


def test_detector_flags_shape_checks():
    src = ("import numpy as np\nfrom numpy import shape\n\n\n"
           "def f(m, w, n):\n    if np.shape(m) != (4,) * n:\n"
           "        pass\n    if w.shape == m.shape:\n        pass\n"
           "    if (4, 4) != w.shape:\n        pass\n"
           "    return shape(w)\n\n\n"
           "def g(m, w):\n    space = m.shape[1:]\n"
           "    if space != space[:1] * 2 or m.shape[0] == 4:\n"
           "        pass\n    if m.size > w.shape[-1]:\n        pass\n"
           "    return m.reshape(w.shape), m.shape is w.shape\n")
    # an axis length, a slice of a shape held in a name, a reshape and an
    # identity test are not flagged
    assert shape_checks(src) == [(6, "shape call"), (8, "shape compared"),
                                 (10, "shape compared"), (12, "shape call")]


def dense_temporaries(source):
    """(line, what) of each ``frompyfunc`` named in ``source`` (a per-element
    Python call), of each ``meshgrid`` call without ``sparse=True`` (a
    full-grid array per axis) outside ``GridFunction.cell_midpoints``, whose
    contract returns the full arrays, and of each ``rfftn`` or ``irfftn``
    named (a whole multi-axis spectrum, where the fractional integral holds
    only last-axis spectra and strips)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            name = child.attr if isinstance(child, ast.Attribute) else \
                child.id if isinstance(child, ast.Name) else \
                child.name if isinstance(child, ast.alias) else None
            if name in ("frompyfunc", "rfftn", "irfftn"):
                found.append((child.lineno, name))
            if isinstance(child, ast.Call):
                fn = child.func
                called = fn.attr if isinstance(fn, ast.Attribute) else \
                    fn.id if isinstance(fn, ast.Name) else None
                sparse = any(k.arg == "sparse"
                             and isinstance(k.value, ast.Constant)
                             and k.value.value is True
                             for k in child.keywords)
                if called == "meshgrid" and not sparse \
                        and inner != ("GridFunction", "cell_midpoints"):
                    found.append((child.lineno, "dense meshgrid"))
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dense_coordinate_temporaries(path):
    assert dense_temporaries(path.read_text()) == []


def test_detector_flags_dense_temporaries():
    src = ("import numpy as np\nfrom numpy import frompyfunc, meshgrid\n"
           "pw = np.frompyfunc(pow, 2, 1)\n\n\n"
           "class GridFunction:\n    def cell_midpoints(self):\n"
           "        return np.meshgrid(*self.axes, indexing='ij')\n\n"
           "    def other(self):\n"
           "        return np.meshgrid(self.x, self.y, sparse=False)\n\n\n"
           "def cell_midpoints(axes):\n    return meshgrid(*axes)\n\n\n"
           "def fine(axes):\n"
           "    return np.meshgrid(*axes, indexing='ij', sparse=True)\n\n\n"
           "def spectra(a):\n    from numpy.fft import irfftn\n"
           "    s = np.fft.rfftn(a, axes=(0, 1))\n"
           "    return irfftn(s), np.fft.rfft(a, axis=1), np.fft.fft(s)\n")
    assert dense_temporaries(src) == [(2, "frompyfunc"), (3, "frompyfunc"),
                                      (11, "dense meshgrid"),
                                      (15, "dense meshgrid"),
                                      (23, "irfftn"), (24, "rfftn"),
                                      (25, "irfftn")]
