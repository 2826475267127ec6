"""Write the stored reference solutions the benchmark gate compares against.

Usage, from the repository root:

    python3 benchmarks/make_reference.py [--out DIR] [WORKLOAD ...]

For each workload it generates the INI with seed 0, runs ``sweepvi run`` on
it once and keeps the ``u``/``v`` columns of ``solution.csv`` (the solution
does not depend on the seed).  ``manifest.json`` records this command, the
workload overrides and the gate's tolerance multiple.  The references were
made once from the commit that introduced the benchmark; regenerate them only
when a workload definition changes, never to make a slower or different
solver pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import gate  # noqa: E402
from workloads import WORKLOADS, Workload, write_config  # noqa: E402

COMMAND = "python3 benchmarks/make_reference.py"


def solve_once(root: Path, workload: Workload, out_dir: Path) -> Path:
    """Run ``sweepvi run`` on the workload (seed 0); return the output directory."""
    from sweepvi.cli import main

    ini = write_config(root, workload, 0, out_dir / "workload.ini")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(ini), "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"{workload.name}: sweepvi run exited with {code}")
    return out_dir


def write_reference(root: Path, workload: Workload, directory: Path) -> dict:
    """Solve the workload and store its solution fields as ``<name>.csv``."""
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        out_dir = solve_once(root, workload, Path(tmp))
        names, values = gate.solution_fields(out_dir / "solution.csv")
    with open(directory / f"{workload.name}.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in values:
            fh.write(",".join("%.17g" % x for x in row) + "\n")
    return {"config": workload.config, "overrides": [list(o) for o in workload.overrides],
            "rows": int(values.shape[0]), "columns": len(names)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS),
                   help="workload names (default: all)")
    p.add_argument("--out", type=Path, default=gate.REFERENCE_DIR)
    args = p.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        p.error(f"unknown workloads {sorted(unknown)}; choose from {sorted(WORKLOADS)}")
    sys.path.insert(0, str(ROOT / "src"))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "manifest.json"
    record = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    record.update(command=COMMAND, tol_multiple=gate.TOL_MULTIPLE,
                  seed=0, contact_bound=gate.CONTACT_BOUND)
    for name in args.workloads:
        record["workloads"][name] = write_reference(ROOT, WORKLOADS[name], args.out)
        print(f"wrote {args.out / (name + '.csv')}")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
