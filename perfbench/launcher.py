"""Run one `adahaar` CLI command with the benchmark's wrappers installed.

    python launcher.py SPANS_OUT STEP CLI_ARGS...

Equivalent to `python -m adahaar CLI_ARGS...`, except that the whole
command is one span named `cli.STEP` and the calls it makes into the
library modules are spans below it. The spans, counts and gauges are
written to SPANS_OUT as JSON when the command ends; the exit code is the
CLI's own.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import adahaar.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    out, step, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    run = tracer.spanned(f"cli.{step}", adahaar.cli.main)
    try:
        return run(argv)
    finally:
        tracer.uninstall()
        Path(out).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
