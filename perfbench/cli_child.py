"""Run one adamxlab command in this interpreter with the layer wrappers on.

Usage: python3 perfbench/cli_child.py OUT.json <adamxlab arguments...>

Writes {"main_s", "exit", "trace"} to OUT.json and exits
with the command's exit code. PYTHONPATH must point at the package.
"""

import json
import sys
import time

from adamxlab import cli
from tracing import Trace, traced


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    trace = Trace()
    start = time.perf_counter()
    with traced(trace):
        try:
            cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    main_s = time.perf_counter() - start
    with open(out, "w") as f:
        json.dump({"main_s": main_s, "exit": code,
                   "trace": trace.to_dict()}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
