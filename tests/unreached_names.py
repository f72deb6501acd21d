"""List the module-level names of ``src/dissdim`` that no user reaches.

    python tests/unreached_names.py

A user reaches the package through the ``dissdim`` command and through the
benchmark, so the walk starts from ``src/dissdim/cli.py`` and ``bench/*.py``:
every module-level definition there, and every name their statements
mention.  It follows names, not objects.  A definition reaches each
module-level definition of ``src/dissdim`` whose name it mentions (as a
name, an attribute, an imported name, or the ``"dissdim.module:attr"``
strings of ``bench/spans.py``), and the walk goes on from there.  A
module's ``__all__`` lists every public name, so it is not walked.

Every module-level name that the walk cannot reach is printed with the
reason ``ALLOWED`` gives it, or as not listed.  A name may stay unreached for
one of two reasons: an open ROADMAP item, named by its title, will route it
to a user (or delete it), or it is a test oracle, an exact reference that
the tests check the measured code against.  ``ALLOWED`` entries that the
walk now reaches, or that no longer exist, are printed as stale.  The
summary line counts the unreached names and the lines their definitions
span (``end_lineno - lineno + 1`` each).  Exit status: 0 when every
unreached name is listed, 4 when some is not.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dissdim"
ENTRY_POINTS = [PACKAGE / "cli.py", *sorted((ROOT / "bench").glob("*.py"))]
SPAN_TARGET = re.compile(r"dissdim\.\w+:([\w.]+)")

# the reasons: a ROADMAP item's title, up to its colon, or "test oracle"
TEST_ORACLE = "test oracle"
COVERING = "ROADMAP: The covering step of the proof, run on a solution"
TIME_AND_WALL = ("ROADMAP: The time boundary; then Dissipation at a spatial boundary"
                 " (one boundary-row path)")
DUCHON_ROBERT = "ROADMAP: Duchon–Robert dissipation from the field itself"

# module.name: why the name may stay unreached
ALLOWED = {
    "aniso_measure.cylinder_mass": TEST_ORACLE,
    "fixtures.PowerLawField": TEST_ORACLE,
    "fixtures.power_law_ball_mass": TEST_ORACLE,
    "fixtures.power_law_vector_field": TEST_ORACLE,
    "fixtures.burgers_smooth_solution": TEST_ORACLE,
    "fixtures.constant_field": TEST_ORACLE,
    "fixtures.grid_measure": TEST_ORACLE,
    "fixtures.time_singular_measure_fixture": TEST_ORACLE,
    # the signed covering estimate, its test functions, and the public form
    # of the pairing that only those test functions reach
    "weak_balance.signed_support_bound": COVERING,
    "weak_balance.SignedSupportReport": COVERING,
    "weak_balance.CoverageError": COVERING,
    "weak_balance.DEFAULT_DIV_THRESHOLD": COVERING,
    "weak_balance.pair_weak_mass": COVERING,
    "cutoffs.PlateauProfile": COVERING,
    "cutoffs.SpatialTestFunction": COVERING,
    "weak_balance.boundary_extended_mass": TIME_AND_WALL,
    "weak_balance.PASSIVE_SCALAR_PAIR": DUCHON_ROBERT,
    "weak_balance._scalar_eta": DUCHON_ROBERT,
}


def definitions(module: ast.Module) -> dict:
    """Each module-level name the module defines, with its statement;
    dunder names (``__all__``, ``__version__``) are not definitions here."""
    found = {}
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        found[name.id] = node
    return found


def mentioned(node: ast.AST) -> set:
    """Every name the node's code mentions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            for target in SPAN_TARGET.findall(sub.value):
                names.update(target.split("."))
    return names


def unreached() -> dict:
    """Each module-level name of ``src/dissdim`` that the walk cannot reach,
    as ``module.name``, in order, with the lines its definition spans."""
    places = {}   # name -> the definitions of that name, one per module
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in definitions(ast.parse(path.read_text(encoding="utf-8"))).items():
            places.setdefault(name, []).append((path.stem, node))
    todo = set()
    for path in ENTRY_POINTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        todo |= mentioned(tree) | set(definitions(tree))
    seen = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for _, node in places.get(name, ()):
            todo |= mentioned(node) - seen
    return dict(sorted((f"{module}.{name}", node.end_lineno - node.lineno + 1)
                       for name, where in places.items() if name not in seen
                       for module, node in where))


def main() -> int:
    names = unreached()
    unlisted = [name for name in names if name not in ALLOWED]
    for name in names:
        print(f"{name}: {ALLOWED.get(name, 'NOT LISTED: route it to a user, or delete it')}")
    for name in sorted(set(ALLOWED) - set(names)):
        print(f"{name}: stale entry, reached or no longer defined")
    print(f"{len(names)} module-level names of src/dissdim, whose definitions span "
          f"{sum(names.values())} lines, are unreached from the CLI and the benchmark; "
          f"{len(unlisted)} of them not listed")
    return 4 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
