"""Compare the README CLI block's outputs between a base tree and this one.

    python tests/readme_diff.py BASE_TREE

Runs ``test_readme.run_block`` of this tree (so this README's commands) once
for BASE_TREE and once for the tree holding this script, each in a fresh
process with that tree's ``src`` first on PYTHONPATH and in a fresh
directory, after checking that ``dissdim`` is imported from that tree and not
from an installed copy.  It prints every command whose exit code, stdout or
stderr differs and every written file whose sha256 differs.  A stdout that is
a JSON object in both trees is compared key by key, so the line names each
key added, removed or changed (dotted below the top level).  Exit status: 0
when every output keeps its bytes, 4 when some differ, 1 when a tree could
not be run.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent

CHILD = """
import json, sys
from pathlib import Path
import dissdim
tree, tests, work = map(Path, sys.argv[1:])
if Path(dissdim.__file__).resolve().parent != (tree / "src" / "dissdim").resolve():
    sys.exit(f"dissdim comes from {dissdim.__file__}, not from {tree}")
sys.path.insert(0, str(tests))
from test_readme import run_block
runs, files = run_block(work)
json.dump({"runs": runs, "files": files}, sys.stdout)
"""


def run_tree(tree: Path) -> dict:
    """The README block's runs and file digests with ``tree``'s package."""
    path = [str(tree / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                                  else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-c", CHILD, str(tree), str(TESTS), work],
                              cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"the README block did not run with {tree}:\n{done.stderr}")
    return json.loads(done.stdout)


def key_changes(old: dict, new: dict, prefix: str = "") -> list:
    """'KEY added', 'KEY removed' or 'KEY changed' for each key whose value
    differs between two JSON objects, nested objects walked key by key."""
    lines = []
    for key in {**old, **new}:
        path = prefix + key
        if key not in old or key not in new:
            lines.append(f"{path} {'added' if key in new else 'removed'}")
        elif isinstance(old[key], dict) and isinstance(new[key], dict):
            lines += key_changes(old[key], new[key], path + ".")
        elif json.dumps(old[key]) != json.dumps(new[key]):   # NaN equals itself here
            lines.append(f"{path} changed")
    return lines


def stdout_change(old: str, new: str) -> str:
    """The label "stdout", followed by the keys that moved when both stdouts
    are JSON objects."""
    try:
        old_json, new_json = json.loads(old), json.loads(new)
    except ValueError:
        return "stdout"
    keys = (key_changes(old_json, new_json)
            if isinstance(old_json, dict) and isinstance(new_json, dict) else [])
    return f"stdout ({'; '.join(keys)})" if keys else "stdout"


def differences(base: dict, head: dict) -> list:
    """One line per command or file whose bytes differ between the runs."""
    lines = []
    for i, (old, new) in enumerate(zip(base["runs"], head["runs"], strict=True)):
        parts = [stdout_change(a, b) if name == "stdout" else name
                 for name, a, b in zip(("exit code", "stdout", "stderr"), old[1:], new[1:])
                 if a != b]
        if parts:
            lines.append(f"command {i}: {' '.join(new[0])}: {', '.join(parts)} changed")
    for name in sorted(set(base["files"]) | set(head["files"])):
        old, new = base["files"].get(name, "missing"), head["files"].get(name, "missing")
        if old != new:
            lines.append(f"file {name}: sha256 {old} -> {new}")
    return lines


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    base_tree, head_tree = Path(argv[0]).resolve(), TESTS.parent
    base, head = run_tree(base_tree), run_tree(head_tree)
    lines = differences(base, head)
    for line in lines:
        print(line)
    print(f"{len(lines)} README outputs differ between {base_tree} and {head_tree}"
          if lines else f"all {len(head['runs'])} README commands and {len(head['files'])} "
          "files keep their bytes")
    return 4 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
