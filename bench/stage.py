"""Run one dissdim CLI command in this process with spans around its layers.

    python3 bench/stage.py SPANS_FILE STAGE_ID COMMAND [ARGS...]

behaves like ``python -m dissdim.cli COMMAND [ARGS...]`` (same stdout, files
and exit code) and also writes the stage's spans to SPANS_FILE as JSON lines.
"""

import sys

from spans import Recorder, install


def main() -> int:
    spans_path, stage_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import dissdim.cli

    recorder = Recorder(stage_id)
    install(recorder)
    try:
        with recorder.span("cli.main"):
            code = dissdim.cli.main(argv)
    finally:
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
