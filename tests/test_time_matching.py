"""Only ``linsys`` matches times, and its mesh refuses what it cannot match.

``FundamentalOperator`` places every event on one mesh node with one match
radius per mesh; every other module resolves times through its
``node_index`` and compares node indices.  A static guard walks the package
with ``ast`` and fails if a module other than ``linsys`` defines, imports or
reads the match tolerance, the mesh's private matcher or the helper that
once matched times outside the mesh.
"""

import ast
import json
import pathlib

from kurzmani.cli import main

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


def test_chain_of_close_times_wider_than_the_radius_is_config_error(tmp_path, capsys):
    """On [0, 3] the radius is 3e-11.  A generator kink 0.6 r past the grid
    node 1 and an impulse 1.2 r past it each lie within r of the time before
    them, so they chain onto node 1 although the impulse is 1.2 r away; the
    mesh refuses that instead of failing the impulse's lookup."""
    r = 3e-11
    A = [[-1.0, 0.0], [0.0, 1.0]]
    cfg = {
        "system": {
            "kind": "ide", "n": 2,
            "A": {"piecewise": {"times": [1.0 + 0.6 * r],
                                "segments": [{"constant": A},
                                             {"constant": [[-1.5, 0.0], [0.0, 1.0]]}]}},
            "impulses": [{"time": 1.0 + 1.2 * r, "B": [[0.1, 0.0], [0.0, 0.0]]}],
            "nonlinearity": {"registry": "quadratic",
                             "params": {"mats": [[[0.0, 0.0], [0.0, 0.0]],
                                                 [[0.05, 0.0], [0.0, 0.0]]]}},
        },
        "solver": {"s": 0.0, "T": 3.0, "tol": 1e-9, "base_step": 0.1,
                   "grid": {"start": 0.0, "stop": 2.0, "count": 3},
                   "zeta_grid": [[0.1]]},
        "output": {"prefix": "chain"},
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    assert main(["manifold", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config"
    assert "1.0 and %r" % (1.0 + 1.2 * r) in err["message"]
