"""Set-up time of ``sweepvi run`` in a fresh process.

Usage: python3 setup_probe.py ROOT CONFIG OUT_DIR

Times ``import sweepvi.cli`` and then ``sweepvi.cli.main(["run", ...])`` up to
the first call of ``solve_evi``: parsing the INI, assembling the problem and
everything the solver does before its first EVI solve.  The first call is
stopped there, so no solving is timed.  Prints one JSON object with
``import_s`` and ``setup_s`` (import included).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


class FirstSolve(BaseException):
    """Raised by the stand-in for ``solve_evi``; carries the clock reading."""


def _stop(*args, **kwargs):
    raise FirstSolve(time.perf_counter())


def main(argv) -> int:
    root, config, out_dir = argv
    sys.path.insert(0, str(Path(root) / "src"))
    t0 = time.perf_counter()
    import sweepvi.cli as cli
    t1 = time.perf_counter()

    from tracer import lookup_sites
    for owner, name, _ in lookup_sites("sweepvi.evi", "solve_evi"):
        setattr(owner, name, _stop)
    t2 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", config, "--out", out_dir])
    except FirstSolve as stop:
        t3 = stop.args[0]
    else:
        print(f"sweepvi run returned {code} before its first EVI solve", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
