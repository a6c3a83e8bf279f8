#!/usr/bin/env python3
"""Write golden.json from the k3lat sources next to this directory.

    python3 k3bench/record_golden.py

The goldens pin every checked output of the three workloads.  Re-record
them only in a change whose purpose is to alter those outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import workloads  # noqa: E402


def main() -> None:
    workdir = HERE.parent / ".k3bench" / "golden"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.setup("census", workdir)
        ops = {"census": [workloads.census_op(inputs, p, None)
                          for p in workloads.CENSUS_PRIMES]}
        inputs = workloads.setup("fibers", workdir)
        ops["fibers"] = [workloads.fiber_op(inputs, c, None)
                         for c in workloads.FIBER_CASES]
        inputs = workloads.setup("cli", workdir)
        cli = workloads.CliPass(inputs, None, workdir / "cache", workloads.child_env(SRC))
        ops["cli"] = [cli.spawned(t) for t in workloads.CLI_MIX]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [op.label for kind in ops.values() for op in kind if not op.ok]
    if failed:
        sys.exit(f"not recorded: outputs failed for {failed}")
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({kind: {op.label: op.observed for op in kind_ops}
                   for kind, kind_ops in ops.items()}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
