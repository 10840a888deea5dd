"""Run one ``mlimb`` CLI command with the benchmark's tracing wrappers installed.

    python3 perfbench/cli_child.py SPANS_JSON ARG...

The traced run of ``cli_quickstart`` starts this in place of
``python -m mlimb.cli ARG...``. It times the import of ``mlimb.cli``, runs
``mlimb.cli.main(ARGS)`` under the wrappers, writes the spans and counters to
SPANS_JSON and exits with the command's exit code.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    started = time.perf_counter()
    import mlimb.cli

    import_s = time.perf_counter() - started
    recorder = spans.Recorder()
    undo, wrapped = spans.install(recorder)
    try:
        code = mlimb.cli.main(argv)
    finally:
        spans.restore(undo)
    out.write_text(json.dumps({
        "import_s": import_s,
        "spans": [dataclasses.asdict(s) for s in recorder.spans],
        "counters": recorder.counters,
        "wrapped": wrapped,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
