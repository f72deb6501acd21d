"""Every ``dissdim`` command of the README's CLI section runs as documented.

The commands are read from the first ``sh`` code block under ``## CLI`` and
run in order, in-process, in one temporary directory, so files one command
writes are read by the next.  Each must exit 0 with a JSON report that holds
no ``error`` key: a flag removed from the CLI, or a README example that no
longer runs, fails here.  A second run of the block in another directory
must give the same bytes: every stdout, every stderr and every file written.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
from pathlib import Path

import pytest

from dissdim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [argv for argv in (shlex.split(line, comments=True) for line in lines)
            if argv and argv[0] == "dissdim"]


def run_in(directory: Path, argv: list):
    """(exit code, stdout, stderr) of one ``dissdim`` command run in ``directory``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv[1:])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_block(directory: Path):
    """Each README command with its (exit code, stdout, stderr), run in order
    in ``directory``, and the sha256 of every file the block wrote, by name."""
    runs = [(argv, *run_in(directory, argv)) for argv in readme_commands()]
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(directory.iterdir())}
    return runs, files


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("readme")
    return directory, run_block(directory)


def test_readme_commands_run(first_run):
    _, (runs, _) = first_run
    assert len(runs) >= 8
    for argv, code, out, _ in runs:
        assert (code, json.loads(out).get("error")) == (0, None), " ".join(argv)


def test_readme_reruns_are_byte_identical(first_run, tmp_path):
    _, (runs, files) = first_run
    rerun, rerun_files = run_block(tmp_path)
    assert rerun_files == files
    for first, second in zip(runs, rerun, strict=True):
        assert first == second, " ".join(first[0])


def test_the_viscous_verify_example_resolves_every_row_in_time(first_run):
    # dt = 0.5 / 200 = 2.5e-3, and at alpha = 1 the time cutoff reaches the
    # nodes t0 -+ dt while (2 delta)**alpha > dt: down to delta = 0.001875,
    # the third scale from 0.0075, but not at the fourth
    directory, (runs, _) = first_run
    [(argv, _, out, _)] = [run for run in runs if run[0][1:4] == ["verify", "--input", "v.field"]]
    report = json.loads(out)
    assert (report["rows"], report["skipped"], report["time_unresolved"]) == (3, 0, 0)
    longer = argv[:argv.index("--count")] + ["--count", "4"]
    code, out, _ = run_in(directory, longer)
    report = json.loads(out)
    assert (code, report["rows"], report["skipped"], report["time_unresolved"]) == (0, 4, 0, 1)


def test_the_viscous_measure_mass_is_the_reported_total(first_run):
    _, (runs, _) = first_run
    [vfield] = [json.loads(out) for argv, _, out, _ in runs if argv[1] == "vfield"]
    [dimension] = [json.loads(out) for argv, _, out, _ in runs
                   if argv[1:4] == ["dimension", "--input", "v.measure"]]
    assert dimension["total_mass"] == vfield["total_dissipation"]
