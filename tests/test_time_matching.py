"""Static guard: only ``linsys`` matches times.

``FundamentalOperator`` places every event on one mesh node with one match
radius per mesh; every other module resolves times through its
``node_index`` and compares node indices.  This walks the package with
``ast`` and fails if a module other than ``linsys`` defines, imports or
reads the match tolerance, the mesh's private matcher or the helper that
once matched times outside the mesh.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kurzmani"
TIME_MATCH = ("_TIME_TOL", "_STEP_FRAC", "_nearest", "_same_time")


def time_match_uses(source):
    """Lines that define, import or read a name of ``TIME_MATCH``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            name = next((a.name for a in node.names
                         if a.name in TIME_MATCH or a.asname in TIME_MATCH), None)
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in TIME_MATCH:
            lines.add(node.lineno)
    return sorted(lines)


def test_guard_flags_time_matching_outside_the_mesh():
    src = ("from .linsys import _same_time as same\n"
           "import kurzmani.linsys as ls\n"
           "TOL = ls._TIME_TOL\n"
           "def _same_time(t, s):\n    return t == s\n"
           "_STEP_FRAC = 1e-3\n"
           "def node(fund, t):\n    return fund.node_index(t)\n")
    assert time_match_uses(src) == [1, 3, 4, 6]


def test_only_linsys_matches_times():
    uses = {p.name: time_match_uses(p.read_text(encoding="utf-8"))
            for p in SRC.glob("*.py")}
    assert uses.pop("linsys.py")
    assert {name: lines for name, lines in uses.items() if lines} == {}
