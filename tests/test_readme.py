"""Every ``dissdim`` command of the README's CLI section runs as documented.

The commands are read from the first ``sh`` code block under ``## CLI`` and
run in order, in-process, in one temporary directory, so files one command
writes are read by the next.  Each must exit 0 with a JSON report that holds
no ``error`` key: a flag removed from the CLI, or a README example that no
longer runs, fails here.
"""

import json
import shlex
from pathlib import Path

from dissdim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [argv for argv in (shlex.split(line, comments=True) for line in lines)
            if argv and argv[0] == "dissdim"]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv[1:])
        report = json.loads(capsys.readouterr().out)
        assert (code, report.get("error")) == (0, None), " ".join(argv)
