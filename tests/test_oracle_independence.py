"""Static guards: the oracles stay off the fast evaluators they check, and
the fast operator has no Python loop over mesh cells.

The reference apply, the escape classifier and the bisection oracle certify
the fast operator only while they share none of its machinery; the gauge
reference (``ks_integral_ref``, its divisions and integrands) certifies
``stieltjes_integral`` on the same terms.  This walks a module with ``ast``:
a function is tainted when it calls a forbidden name (in ``lp_manifold``:
``kernels``, ``_build_kernels`` or a scan helper), reads a forbidden field
as an attribute (a ``_Kernels`` field), or calls a tainted function of the
module.  The oracles must stay untainted.
"""

import ast
import pathlib

from kurzmani.linsys import _Cells
from kurzmani.lp_manifold import _Kernels

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kurzmani"
ORACLES = ("_fine_layout", "_inner_accumulation", "_reference_apply",
           "classify_initial", "bisect_manifold_oracle")
INTEGRATOR = {"dop853", "_initial_step", "_stages", "_error_norm", "_dense_output"}
FORBIDDEN_CALLS = {"kernels", "_build_kernels", "_scan_levels", "_contract", "_scan",
                   "_stable_sweep", "_initial_paths", "_fast_apply"}
FAST_PATH = ("_contract", "_scan", "_stable_sweep", "_initial_paths", "_fast_apply",
             "lp_operator_apply", "initial_path", "_forcing")


def _functions(tree):
    """Every function and method of the module, grouped by name."""
    funcs = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs.setdefault(node.name, []).append(node)
    return funcs


def _called(fn):
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif isinstance(f, ast.Attribute):
                names.add(f.attr)
    return names


def _reads_field(fn, fields):
    return any(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
               and n.attr in fields for n in ast.walk(fn))


def tainted(source, fields, forbidden=FORBIDDEN_CALLS):
    """Names of the module's functions that call a ``forbidden`` name or
    read one of ``fields``, directly or through another of its functions.

    Methods are matched by name alone, so a name shared by several
    definitions is tainted when any of them is.
    """
    funcs = _functions(ast.parse(source))
    calls = {name: set().union(*map(_called, defs)) for name, defs in funcs.items()}
    bad = {name for name, defs in funcs.items()
           if calls[name] & forbidden
           or any(_reads_field(fn, fields) for fn in defs)}
    grew = True
    while grew:
        more = {name for name in funcs if name not in bad and calls[name] & bad}
        bad |= more
        grew = bool(more)
    return bad


def test_guard_flags_direct_and_transitive_kernel_use():
    src = (
        "def reads_field(ctx):\n    return ctx.kernels(0)\n"
        "def reads_level(kern):\n    return kern.scan\n"
        "def helper(ctx):\n    return reads_field(ctx)\n"
        "def clean(ctx):\n    return ctx.fund.nodes\n")
    assert tainted(src, _Kernels._fields) == {"reads_field", "reads_level", "helper"}


def test_oracles_never_touch_the_fast_kernels():
    source = (SRC / "lp_manifold.py").read_text(encoding="utf-8")
    funcs = _functions(ast.parse(source))
    assert set(ORACLES) <= set(funcs)
    assert not set(ORACLES) & tainted(source, _Kernels._fields)


def test_escape_integrator_never_touches_the_fast_kernels():
    """``classify_initial`` steps with ``linsys.dop853``, which the
    ``lp_manifold`` walk does not enter."""
    source = (SRC / "linsys.py").read_text(encoding="utf-8")
    assert INTEGRATOR <= set(_functions(ast.parse(source)))
    assert not INTEGRATOR & tainted(source, _Kernels._fields)


def test_gauge_reference_never_reaches_the_fast_stieltjes_split():
    """``ks_integral_ref``, ``pinned_division`` and the methods of
    ``PointIntervalFn`` (its batch closures included) stay untainted."""
    source = (SRC / "kurzweil.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    (cls,) = [n for n in tree.body
              if isinstance(n, ast.ClassDef) and n.name == "PointIntervalFn"]
    oracles = {"ks_integral_ref", "pinned_division", *_functions(cls)}
    assert oracles <= set(_functions(tree))
    bad = tainted(source, (), forbidden={"stieltjes_integral"})
    assert "cross_check" in bad      # the guard sees the fast side's caller
    assert not oracles & bad


def test_mesh_store_names_stay_off_the_kernel_fields():
    """The oracles read the fundamental operator's store; the guard matches
    attribute names, so a store name shared with a ``_Kernels`` field would
    taint them."""
    store = {"jumps", "jump_invs", "cells", *_Cells._fields}
    assert not store & set(_Kernels._fields)


def test_fast_operator_has_no_loop_over_cells():
    """Only the scans' while loops over log2(M) levels remain."""
    funcs = _functions(ast.parse((SRC / "lp_manifold.py").read_text(encoding="utf-8")))
    for name in FAST_PATH:
        (fn,) = funcs[name]
        loops = [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))]
        assert not loops, name
