"""Static guards: every module-level import in the package is used, every
definition is reached by the package or the benchmark, every defaulted
parameter is set by some call in the package or the benchmark (a value only
a test sets is a module constant the test patches), no module imports scipy
(numpy is the one runtime dependency), only ``funcspace`` and the stacked
cell grouping of
``FundamentalOperator.cells`` read ``.is_constant`` (so the constant-cell
rule lives in one place), ``apps`` calls no ``np.linalg.inv`` (the jump
table inverts every jump factor), and the registry nonlinearities, ``Segment.eval`` and the preset terms'
``PresetTerm.eval``/``_scalar`` and the fast operator's prefix scan take no
BLAS product (so a point's value, or a column's scan, there never depends
on its batch), no module reads a numpy name that imports
``numpy.ma``, ``numpy.random`` or ``numpy.polynomial``, and neither the
package nor the CLI imports a solver layer at module level (so a fresh
process loads only the layers its command runs), and only ``cli._read_run``
calls ``solver_block`` (so the CLI reads a run once).  The BLAS guard follows
calls by bare name only, so each method is named as a target.  The
dead-definition guard counts a method as reached only by an attribute read
(``x.name``): a bare name, such as a local variable of the method's name,
reaches only a module-level definition; a read inside a definition named N
reaches no definition named N, so namesakes that call only each other are
dead; dunders, module-level ones such as the package's ``__getattr__``
included, are the interpreter's to call.

No linter ships with the test environment, so these walk the source with
``ast``.  A name that ``__init__.py`` lists for lazy export reaches
nothing: a definition that only it names is dead.
``PUBLIC_CHECKS`` and ``TEST_ORACLES`` list the definitions the package
may hold for its tests alone.
"""

import ast
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kurzmani"
MODULES = sorted(SRC.glob("*.py"))
# public checks that the tests call and the package does not
PUBLIC_CHECKS = ("invariance_check",)
# methods only the tests' oracles call: ``Segment.derivative`` and
# ``PresetTerm.derivative`` (which reach only each other in the package)
# serve the derivative/antiderivative round trip in test_funcspace.py and
# the variation oracles in test_path_build.py.  ``PiecewisePath.__add__``
# is a dunder the guard skips; only the fold oracle of test_path_build.py
# calls it.
TEST_ORACLES = ("derivative",)
# (module, function, parameter) of entry points whose defaults only the
# interpreter's own call relies on: ``cli.main`` parses sys.argv when argv
# is None
ENTRY_POINTS = (("cli.py", "main", "argv"),)


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_guard_flags_an_unused_import():
    src = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(source):
    """(line, name, is_method) of the module-level functions and classes and
    the methods, dunders left out: the interpreter calls those (a module's
    ``__getattr__`` and ``__dir__`` too, PEP 562)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _dunder(node.name):
            out.append((node.lineno, node.name, False))
        if isinstance(node, ast.ClassDef):
            out += [(item.lineno, item.name, True) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not _dunder(item.name)]
    return out


def names_read(source):
    """The names the source reads bare, and those it reads as attributes.
    A read inside a definition named N (at any depth) is no read of N."""
    bare, attrs = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in inside:
                attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return bare, attrs


def unreached(modules, readers, allowed):
    """(module, line, name) of every definition in ``modules`` (name ->
    source) that no source in ``readers`` reads and ``allowed`` lacks.  A
    method is reached only by an attribute read (``x.name``), not by a bare
    name such as a local variable.  An import, a re-export included, binds a
    name without reading it."""
    bare, attrs = set(allowed), set(allowed)
    for source in readers:
        b, a = names_read(source)
        bare |= b
        attrs |= a
    return sorted((mod, line, name) for mod, source in modules.items()
                  for line, name, method in definitions(source)
                  if name not in attrs and (method or name not in bare))


def test_dead_definition_guard_flags_an_unread_definition():
    lib = ("def used():\n    pass\n\n\ndef unused():\n    pass\n\n\n"
           "class Box:\n    def __init__(self):\n        pass\n\n"
           "    def size(self):\n        return used()\n\n"
           "    def label(self):\n        return 1\n")
    caller = "print(Box().size())\n"
    init = "from .lib import Box, unused, used\n"
    assert unreached({"lib": lib}, [lib, caller, init], ()) == [
        ("lib", 5, "unused"), ("lib", 16, "label")]
    # a module-level dunder is a hook the interpreter calls; its helpers are not
    hooks = ("def __getattr__(name):\n    return name\n\n\n"
             "def _resolve(name):\n    return name\n")
    assert unreached({"init": hooks}, [hooks], ()) == [("init", 5, "_resolve")]
    assert unreached({"lib": lib}, [lib, caller], ("unused",)) == [
        ("lib", 16, "label")]
    # a local variable of a method's name does not reach the method
    shadow = "label = Box().size()\nprint(label)\n"
    assert unreached({"lib": lib}, [lib, caller, shadow], ("unused",)) == [
        ("lib", 16, "label")]
    # two namesakes that call only each other reach nothing, not even when
    # their classes are used
    pair = ("class A:\n    def grow(self):\n        return B().grow()\n\n\n"
            "class B:\n    def grow(self):\n        return A().grow()\n")
    assert unreached({"pair": pair}, [pair, "print(A(), B())\n"], ()) == [
        ("pair", 2, "grow"), ("pair", 7, "grow")]
    assert unreached({"pair": pair}, [pair, "print(A().grow(), B())\n"], ()) == []


def test_every_definition_is_reached_by_the_package_or_the_benchmark():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    bench = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreached(sources, list(sources.values()) + bench,
                     PUBLIC_CHECKS + TEST_ORACLES) == []


def test_every_public_check_is_called_by_a_test():
    tests = set()
    for p in sorted((ROOT / "tests").glob("test_*.py")):
        tests |= set().union(*names_read(p.read_text(encoding="utf-8")))
    assert set(PUBLIC_CHECKS + TEST_ORACLES) <= tests


def defaulted_parameters(source):
    """(function, parameter, position, class, line) of every parameter with a
    default.  ``position`` counts from the first argument a call passes (a
    method's ``self``/``cls`` is not counted) and is None for keyword-only
    parameters; ``class`` is the enclosing class of a method, else None."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                params = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                first = len(params) - len(a.defaults)
                out.extend((child.name, p.arg, i - skip, cls, p.lineno)
                           for i, p in enumerate(params) if i >= first)
                out.extend((child.name, p.arg, None, cls, p.lineno)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return out


def call_settings(sources):
    """What the calls in ``sources`` set, per callee name: the keywords they
    pass and the largest number of positional arguments.  A call is named
    by its function or attribute name, and ``cls(...)`` by the enclosing
    class.  A ``**mapping`` sets every keyword (marked "**") and a
    ``*sequence`` every position (count inf)."""
    keywords, positions = {}, {}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name == "cls" and cls is not None:
                    name = cls
                keywords.setdefault(name, set()).update(
                    k.arg or "**" for k in child.keywords)
                count = math.inf if any(isinstance(a, ast.Starred)
                                        for a in child.args) else len(child.args)
                positions[name] = max(positions.get(name, 0), count)
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    for source in sources:
        visit(ast.parse(source), None)
    return keywords, positions


def unset_defaults(modules, callers):
    """(module, line, function, parameter) of every defaulted parameter in
    ``modules`` (name -> source) that no call in ``callers`` sets.  A
    method's calls are matched by name alone, and a class's calls count for
    its ``__init__``."""
    keywords, positions = call_settings(callers)

    def is_set(name, param, pos):
        kws = keywords.get(name, ())
        return "**" in kws or param in kws or (
            pos is not None and pos < positions.get(name, 0))

    return sorted((mod, line, func, param)
                  for mod, source in modules.items()
                  for func, param, pos, cls, line in defaulted_parameters(source)
                  if not is_set(func, param, pos)
                  and not (func == "__init__" and cls and is_set(cls, param, pos)))


def test_unset_default_guard_flags_a_parameter_no_call_sets():
    lib = ("def f(a, b=1, c=2, *, d=3):\n    return a\n\n\n"
           "class Box:\n    def __init__(self, size=1, label=None):\n"
           "        self.size = size\n\n"
           "    @classmethod\n    def unit(cls):\n        return cls(1)\n\n"
           "    def grow(self, by=1, cap=9):\n        return by\n")
    caller = "f(0, 5)\nf(0, d=4)\nBox().grow(2)\n"
    assert unset_defaults({"lib": lib}, [lib, caller]) == [
        ("lib", 1, "f", "c"), ("lib", 6, "__init__", "label"),
        ("lib", 13, "grow", "cap")]
    spread = "kwargs = {}\nBox(**kwargs)\nf(*[0, 1, 2])\n"
    assert unset_defaults({"lib": lib}, [lib, caller, spread]) == [
        ("lib", 13, "grow", "cap")]


def test_every_defaulted_parameter_is_set_by_some_call():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    callers = [p.read_text(encoding="utf-8")
               for d in (SRC, ROOT / "perfbench") for p in sorted(d.glob("*.py"))]
    unset = [(mod, func, param)
             for mod, _, func, param in unset_defaults(sources, callers)]
    assert unset == list(ENTRY_POINTS)


def scipy_imports(source):
    """Lines that import scipy or one of its submodules, at module level or
    inside a function."""
    def scipy(name):
        return name is not None and name.split(".")[0] == "scipy"

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import) and any(scipy(a.name) for a in node.names)
                  or isinstance(node, ast.ImportFrom) and scipy(node.module))


def test_guard_flags_a_planted_scipy_import():
    src = ("import numpy as np, scipy.linalg\nfrom scipy.integrate import quad\n"
           "import scipyx\nfrom . import scipy\n"
           "def f(t):\n    from scipy import integrate\n    return t\n"
           "import scipy as sp\n")
    assert scipy_imports(src) == [1, 2, 6, 8]


def test_no_module_imports_scipy():
    """numpy is the one runtime dependency: the adaptive quadrature is
    ``funcspace.gauss_kronrod``, and scipy serves the tests as an oracle."""
    lines = {p.name: scipy_imports(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: found for name, found in lines.items() if found} == {}


def solve_ivp_uses(source):
    """Lines that import or name scipy's ``solve_ivp``, bare or as an
    attribute."""
    tree = ast.parse(source)
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and any(a.name == "solve_ivp" for a in node.names)
                   or getattr(node, "id", None) == "solve_ivp"
                   or getattr(node, "attr", None) == "solve_ivp"})


def test_guard_flags_solve_ivp():
    src = ("from scipy.integrate import quad, solve_ivp as ivp\n"
           "import scipy.integrate\n"
           "sol = scipy.integrate.solve_ivp(f, (0, 1), y0)\n"
           "x = solve_ivp\n")
    assert solve_ivp_uses(src) == [1, 3, 4]


def test_no_module_uses_solve_ivp():
    """``linsys.dop853`` is the package's one ODE integrator."""
    uses = {p.name: solve_ivp_uses(p.read_text(encoding="utf-8"))
            for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def linalg_inv_calls(source):
    """Lines that call numpy's ``inv``: as an attribute of ``.linalg`` or
    by a name imported from ``numpy.linalg``."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
             for alias in node.names if alias.name == "inv"}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) in names
                       or getattr(node.func, "attr", None) == "inv"
                       and getattr(node.func.value, "attr", None) == "linalg"))


def test_guard_flags_a_linalg_inv_call():
    src = ("import numpy as np\nimport numpy\n"
           "from numpy.linalg import inv as invert, solve\n"
           "a = np.linalg.inv(np.eye(2))\nb = invert(a)\nc = solve(a, a)\n"
           "d = np.linalg.pinv(a)\ne = numpy.linalg.inv(a)\nf = a.inv\n")
    assert linalg_inv_calls(src) == [4, 5, 8]


def test_apps_calls_no_linalg_inv():
    """``check_hypotheses`` reads the jump factors' inverses from
    ``linsys.jump_table``, which inverts them in one stacked call."""
    assert linalg_inv_calls((SRC / "apps.py").read_text(encoding="utf-8")) == []


def scopes(source):
    """(scope, node) of every top-level statement: the scope is the
    module-level function or class that holds it, a method as
    "Class.method", and "<module>" for any other statement."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            out += [("%s.%s" % (node.name, item.name)
                     if isinstance(item, ast.FunctionDef) else node.name, item)
                    for item in node.body]
        else:
            out.append((getattr(node, "name", "<module>"), node))
    return out


def attribute_reads(source, attr):
    """(scope, line) of every read of ``.attr`` (scopes as ``scopes``)."""
    return sorted((scope, n.lineno) for scope, node in scopes(source)
                  for n in ast.walk(node)
                  if isinstance(n, ast.Attribute) and n.attr == attr
                  and isinstance(n.ctx, ast.Load))


def constant_cell_readers(sources):
    """The scopes outside ``funcspace`` that read ``.is_constant``, per module."""
    out = {}
    for name, source in sources.items():
        scopes = sorted({s for s, _ in attribute_reads(source, "is_constant")})
        if scopes and name != "funcspace.py":
            out[name] = scopes
    return out


def test_guard_flags_a_planted_is_constant_read():
    src = ("class Spec:\n    kind = seg.is_constant\n\n"
           "    def flat(self, seg):\n        return seg.is_constant\n\n\n"
           "def f(p):\n    return [s.is_constant for s in p]\n\n\n"
           "x = y.is_constant\nz.is_constant = True\n")
    assert attribute_reads(src, "is_constant") == [
        ("<module>", 12), ("Spec", 2), ("Spec.flat", 5), ("f", 9)]
    planted = (SRC / "apps.py").read_text(encoding="utf-8") + (
        "\n\ndef _flat(spec, t):\n"
        "    return spec.smooth.segments[spec.smooth.segment_index(t)].is_constant\n")
    assert constant_cell_readers({"apps.py": planted}) == {"apps.py": ["_flat"]}


def test_only_funcspace_and_the_stacked_cell_grouping_read_is_constant():
    """``funcspace.constant_on`` is the one constant-cell rule; the stacked
    grouping of ``FundamentalOperator.cells`` applies it to every cell at
    once."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert constant_cell_readers(sources) == {
        "linsys.py": ["FundamentalOperator.cells"]}


def callers(source, name):
    """The scopes (as ``scopes``) that call ``name``, by bare name or as an
    attribute."""
    return sorted({scope for scope, node in scopes(source) for n in ast.walk(node)
                   if isinstance(n, ast.Call)
                   and name in (getattr(n.func, "id", None),
                                getattr(n.func, "attr", None))})


def test_guard_flags_a_planted_solver_block_reader():
    src = ("def f(cfg):\n    return solver_block(cfg)\n\n\n"
           "class Cmd:\n    def run(self, cfg):\n        return cli.solver_block(cfg)\n\n\n"
           "def g(cfg):\n    return solver_block\n\n\nx = solver_block({})\n")
    assert callers(src, "solver_block") == ["<module>", "Cmd.run", "f"]
    planted = (SRC / "cli.py").read_text(encoding="utf-8") + (
        "\n\ndef _horizon(cfg):\n    return solver_block(cfg).get(\"T\")\n")
    assert callers(planted, "solver_block") == ["_horizon", "_read_run"]


def test_only_the_run_reader_reads_the_solver_block():
    """``cli._read_run`` parses the solver block once for every command."""
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert callers(source, "solver_block") == ["_read_run"]


# calls that reach a BLAS kernel (or, for ``vander``, feed one), and einsum,
# whose summation order changes with the layout of the batch
BLAS_CALLS = ("dot", "matmul", "tensordot", "inner", "vander", "einsum")


def blas_products(source, targets):
    """Lines that take ``@`` or call one of ``BLAS_CALLS`` inside the
    functions ``targets`` names as (class or None, function), and inside
    the module-level functions they call by name."""
    tree = ast.parse(source)
    funcs = {(None, n.name): n for n in tree.body if isinstance(n, ast.FunctionDef)}
    funcs.update(((c.name, f.name), f) for c in tree.body if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef))
    missing = [t for t in targets if t not in funcs]
    if missing:
        raise KeyError("no function %r in the source" % (missing,))
    todo, seen, lines = list(targets), set(), set()
    while todo:
        key = todo.pop()
        if key in seen or key not in funcs:
            continue
        seen.add(key)
        for node in ast.walk(funcs[key]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.MatMult):
                lines.add(node.lineno)
            elif isinstance(node, ast.Call):
                f = node.func
                if (getattr(f, "id", None) or getattr(f, "attr", None)) in BLAS_CALLS:
                    lines.add(node.lineno)
                elif isinstance(f, ast.Name):
                    todo.append((None, f.id))
    return sorted(lines)


def registry_classes(source):
    """Classes the module-level ``REGISTRY`` mapping constructs."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "REGISTRY" for t in node.targets):
            return sorted({c.func.id for c in ast.walk(node.value)
                           if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)})
    return []


def test_guard_flags_a_blas_product():
    src = ("import numpy as np\n"
           "def helper(a):\n    return np.dot(a, a)\n\n"
           "class F:\n    def __call__(self, z):\n        w = z @ z\n"
           "        return helper(np.vander(w))\n\n"
           "    def other(self, z):\n        return np.matmul(z, z)\n")
    assert blas_products(src, [("F", "__call__")]) == [3, 7, 8]
    assert blas_products(src, [("F", "other")]) == [11]
    with pytest.raises(KeyError):
        blas_products(src, [("F", "eval")])
    reg = "REGISTRY = {'a': lambda p: _A(p['x']), 'b': lambda p: _B(p.get('n'))}\n"
    assert registry_classes(reg) == ["_A", "_B"]


def test_registry_calls_and_segment_eval_take_no_blas_product():
    lpm = (SRC / "lp_manifold.py").read_text(encoding="utf-8")
    classes = registry_classes(lpm)
    assert classes == ["_Cubic", "_Quadratic", "_SaturatedTanh", "_Zero"]
    # the fast operator and the batch solve take every product the same way,
    # so a column of a batch has the bits of the same path solved alone
    fast = [(None, name) for name in ("_scan", "_stable_sweep", "_fast_apply",
                                      "_forcing", "_solve_batch")]
    assert blas_products(lpm, [(c, "__call__") for c in classes] + fast) == []
    # the guard follows the calls into the one product rule
    swept = lpm.replace('np.multiply(a, b, order="C")', "a @ b")
    assert swept != lpm
    # (``_forcing`` reaches the registry through a method call, which the
    # guard does not follow, and takes no product of its own)
    for target in [(c, "__call__") for c in classes[:3]] + fast:
        if target != (None, "_forcing"):
            assert len(blas_products(swept, [target])) == 1
    # nor does the reference apply: the module calls no einsum at all
    assert "einsum(" not in lpm
    # Segment.eval's polynomial part and, as method calls the guard does not
    # follow, its preset terms
    funcspace = (SRC / "funcspace.py").read_text(encoding="utf-8")
    assert blas_products(funcspace, [("Segment", "eval"), ("PresetTerm", "eval"),
                                     ("PresetTerm", "_scalar")]) == []


# numpy names whose use imports a numpy subpackage: ``numpy.ma`` (read by
# ``np.unique`` and the set operations built on it), ``numpy.random`` and
# ``numpy.polynomial``
NUMPY_SUBPACKAGE_NAMES = ("unique", "union1d", "intersect1d", "setdiff1d",
                          "setxor1d", "isin", "in1d", "ma", "random", "polynomial")


def numpy_subpackage_reads(source):
    """Lines that read one of ``NUMPY_SUBPACKAGE_NAMES`` from numpy: as an
    attribute of ``np``/``numpy``, or by an import from numpy."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_SUBPACKAGE_NAMES \
                and getattr(node.value, "id", None) in ("np", "numpy"):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            parts = node.module.split(".")[1:] + [a.name for a in node.names]
            if set(parts) & set(NUMPY_SUBPACKAGE_NAMES):
                lines.add(node.lineno)
        elif isinstance(node, ast.Import) and any(
                set(a.name.split(".")[1:]) & set(NUMPY_SUBPACKAGE_NAMES)
                for a in node.names if a.name.split(".")[0] == "numpy"):
            lines.add(node.lineno)
    return sorted(lines)


def test_guard_flags_a_numpy_subpackage_read():
    src = ("import numpy as np\nimport numpy.random\n"
           "from numpy.polynomial.legendre import leggauss\n"
           "from numpy import sort, unique\n"
           "a = np.unique([1, 1])\nb = np.sort(a)\n"
           "c = np.ma.is_masked(a)\nd = np.union1d(a, b)\n"
           "e = np.random.default_rng(0)\nf = numpy.polynomial\n")
    assert numpy_subpackage_reads(src) == [2, 3, 4, 5, 7, 8, 9, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_a_numpy_subpackage(path):
    assert numpy_subpackage_reads(path.read_text(encoding="utf-8")) == []


# the layers a fresh CLI process imports only for the commands that use them
HEAVY_LAYERS = ("apps", "linsys", "dichotomy", "lp_manifold")


def imported_layers(node):
    """The package layers an import statement imports."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names
                if a.name.startswith("kurzmani.")}
    module = node.module or ""
    if node.level:
        return {module.split(".")[0]} if module else {a.name for a in node.names}
    if module == "kurzmani":
        return {a.name for a in node.names}
    return {module.split(".")[1]} if module.startswith("kurzmani.") else set()


def module_level_layer_imports(source):
    """Lines that import one of ``HEAVY_LAYERS`` when the module itself is
    imported: anywhere outside a function body."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)) \
                    and imported_layers(child) & set(HEAVY_LAYERS):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


def test_guard_flags_a_module_level_layer_import():
    src = ("from . import __version__, apps\nfrom .linsys import expm\n"
           "from .funcspace import norm\nimport kurzmani.dichotomy\n"
           "from kurzmani.lp_manifold import solve_lp\n"
           "if True:\n    from .apps import plain\n"
           "def f():\n    from .apps import build_context\n    return build_context\n")
    assert module_level_layer_imports(src) == [1, 2, 4, 5, 7]


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_package_and_cli_import_no_heavy_layer_at_module_level(name):
    assert module_level_layer_imports((SRC / name).read_text(encoding="utf-8")) == []


# the names ``kurzmani`` re-exported from its layers before they resolved lazily
PUBLIC_NAMES = (
    "PiecewisePath", "Segment", "StieltjesMeasure", "TaggedDivision", "norm",
    "running_integral", "IntegralResult", "PointIntervalFn",
    "cross_check", "ks_integral_ref", "stieltjes_integral", "FundamentalOperator",
    "LinearSystemSpec", "check_regularity", "DichotomyData", "certify",
    "spectral_projection", "verify_dichotomy", "LPContext", "ManifoldGraph",
    "NonlinearitySpec", "SolutionPath", "bisect_manifold_oracle",
    "classify_initial", "contraction_estimate", "invariance_check",
    "lp_operator_apply", "manifold_graph", "solve_lp", "IdeSpec", "MdeSpec",
    "check_hypotheses", "ide_to_context", "mde_to_context")


def test_every_public_name_still_resolves():
    import importlib

    import kurzmani
    for name in PUBLIC_NAMES:
        assert name in dir(kurzmani) and name in kurzmani.__all__, name
        value = getattr(kurzmani, name)
        namespace = {}
        exec("from kurzmani import %s" % name, namespace)
        assert namespace[name] is value, name
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_an_unknown_name_is_an_attribute_error():
    import kurzmani
    with pytest.raises(AttributeError, match="no attribute 'solve_lpp'"):
        kurzmani.solve_lpp
    with pytest.raises(ImportError):
        exec("from kurzmani import solve_lpp", {})
