#!/usr/bin/env python3
"""k3bench: end-to-end and per-layer benchmark of k3lat.

    python3 k3bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the k3lat sources are taken from
``src/`` next to this directory.  Workloads (closed loop, one client):

* ``census``  build, JSON round-trip and verify the orbit certificates for
  the 29 primes p = 3 mod 4 below 260;
* ``fibers``  enumerate period embeddings of the hexagonal lattice at index
  1 (d = 2, 4, 6, 8) and index 2 (d = 2);
* ``cli``     a fixed mix of ``python -m k3lat ... --json`` calls, each in a
  fresh process, one fresh memo cache per pass of the mix.

A run repeats whole passes until ``--seconds`` have been measured (for
``cli`` also until at least 40 calls), checks every output against
``golden.json``, prints every metric with its unit, and ends with one JSON
line.  ``--trace 1`` instead runs one untraced and one traced pass and
reports the per-layer metrics; spans go to ``.k3bench/spans-<workload>.jsonl``.

The speed of a shared host drifts by up to 2x within seconds.  So a fixed
reference loop is timed between operations, and set-up and operation
times are reported in reference-host seconds: measured seconds times
REF_NOMINAL_S over the mean reference time around that measurement.  Raw
times are printed too (``setup_raw_s``, ``wall_raw_s``).  Per-layer times
are raw.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("census", "fibers", "cli")
SETUP_SAMPLES = 3    # set-ups timed per run, all but the last in fresh interpreters
IMPORT_SAMPLES = 3   # fresh interpreters timed for cli.import_s
MIN_CLI_CALLS = 40   # so that ten calls lie beyond call_ms.p75
REF_REPEATS = 5      # reference loops in one window (run start and end, around set-ups)
REF_NOMINAL_S = 0.025  # reference-loop time that defines a reference-host second
PROBE_SHARE = 0.05    # reference-loop time after an operation, as a share of its time

PROBE_SETUP = ("import sys; from pathlib import Path; import workloads; "
               "print(workloads.timed_setup(sys.argv[1], Path(sys.argv[2]))[0])")
PROBE_IMPORT = ("import time; t = time.perf_counter(); import k3lat.cli; "
                "print(time.perf_counter() - t)")


def ref_loop() -> float:
    """Time a fixed pure-Python loop of Fraction arithmetic and small-object
    churn, the kinds of work k3lat and sympy do, to tell host drift from
    code changes."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(1, i % 97 + 1) * Fraction(i, 7)
    counts: dict = {}
    for i in range(20000):
        key = (i % 101, i % 7, str(i % 13))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - start


def ref_window() -> list[float]:
    return [ref_loop() for _ in range(REF_REPEATS)]


def scaled(measure) -> tuple[float, float]:
    """Call measure() -> seconds; return it raw and in reference-host seconds,
    scaled by the reference loops timed just before and after it."""
    before = ref_window()
    seconds = measure()
    return seconds, seconds * REF_NOMINAL_S / statistics.fmean(before + ref_window())


def percentile(values, q: float, beyond: int = 10):
    """Nearest-rank q-th percentile, or None when fewer than ``beyond``
    samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < beyond:
        return None
    return ordered[rank - 1]


def probe(code: str, args: list[str], env: dict, cwd: Path) -> float:
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                         stdout=subprocess.PIPE, check=True, timeout=120)
    return float(out.stdout.decode().strip().splitlines()[-1])


class Run:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.env = workloads.child_env(SRC)
        self.rng = random.Random(args.seed)
        self.golden = workloads.load_golden()[args.workload]
        self.inputs = None
        self.passes = 0

    # -- one pass of each workload --------------------------------------------

    def order(self) -> list:
        items = {"census": workloads.CENSUS_PRIMES, "fibers": workloads.FIBER_CASES,
                 "cli": workloads.CLI_MIX}[self.args.workload]
        items = list(items)
        self.rng.shuffle(items)
        return items

    def op_fn(self, kind: str = "spawned"):
        """The function running one operation of this workload; for cli,
        each call makes one pass with its own fresh memo cache."""
        if self.args.workload == "census":
            return lambda p: workloads.census_op(self.inputs, p, self.golden)
        if self.args.workload == "fibers":
            return lambda case: workloads.fiber_op(self.inputs, case, self.golden)
        self.passes += 1
        cli = workloads.CliPass(self.inputs, self.golden,
                                self.workdir / f"cache-{self.passes}", self.env)
        return cli.spawned if kind == "spawned" else cli.inprocess

    def run_pass(self, order, op_fn, tracer=None) -> list:
        """Run one pass.  After each operation the reference loop runs for
        PROBE_SHARE of the operation's time (at least once), and the
        operation is scaled by the mean reference time before and after it."""
        ops = []
        before = ref_window()
        for item in order:
            if tracer is not None:
                tracer.op = str(item)
            op = op_fn(item)
            loops = max(1, math.ceil(PROBE_SHARE * op.seconds / REF_NOMINAL_S))
            after = [ref_loop() for _ in range(loops)]
            op.scale = REF_NOMINAL_S / statistics.fmean(before + after)
            before = after
            ops.append(op)
        return ops

    # -- the run ----------------------------------------------------------------

    def start(self) -> tuple[list[float], list[tuple[float, float]]]:
        """Warm up, time the reference loop, and set up SETUP_SAMPLES times:
        in fresh interpreters, then in this process, which keeps its inputs."""
        # untimed warm-up call: bytecode compilation never lands in a timed call
        subprocess.run([sys.executable, "-m", "k3lat", "k3", "fm-count", "-d", "12",
                        "--json"], env=self.env, cwd=self.workdir,
                       stdout=subprocess.DEVNULL, check=True, timeout=120)
        refs = ref_window()
        probe_env = dict(self.env, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        setups = [scaled(lambda i=i: probe(
            PROBE_SETUP, [self.args.workload, str(self.workdir / f"probe-{i}")],
            probe_env, self.workdir)) for i in range(SETUP_SAMPLES - 1)]
        os.environ.pop("K3LAT_CACHE_DIR", None)
        sys.path.insert(0, str(SRC))

        def own_setup() -> float:
            seconds, self.inputs = workloads.timed_setup(self.args.workload,
                                                         self.workdir / "inputs")
            return seconds

        setups.append(scaled(own_setup))
        return refs, setups

    def measure(self) -> list[list]:
        passes = []
        calls = 0
        begin = time.perf_counter()
        while (not passes or time.perf_counter() - begin < self.args.seconds
               or (self.args.workload == "cli" and calls < MIN_CLI_CALLS)):
            ops = self.run_pass(self.order(), self.op_fn())
            passes.append(ops)
            calls += len(ops)
        return passes

    def trace(self) -> tuple[list[list], dict]:
        order = self.order()
        layers = {"cli.run_ms": (0.0, "ms", "lower"), "cli.spawn_ms": (0.0, "ms", "lower")}
        import_s = statistics.median(
            probe(PROBE_IMPORT, [], self.env, self.workdir) for _ in range(IMPORT_SAMPLES))
        layers["cli.import_s"] = (import_s, "s", "lower")
        tracer = Tracer()
        if self.args.workload == "cli":
            spawned = self.run_pass(order, self.op_fn())
            # warm-up: the two measured in-process passes start equally warm
            self.run_pass(order, self.op_fn("inprocess"))
            plain = self.run_pass(order, self.op_fn("inprocess"))
            tracer.install()
            try:
                traced = self.run_pass(order, self.op_fn("inprocess"), tracer)
            finally:
                tracer.uninstall()
            run_ms = [1000 * op.seconds for op in plain]
            spawn_ms = [1000 * (s.seconds - import_s) - r for s, r in zip(spawned, run_ms)]
            layers["cli.run_ms"] = (statistics.median(run_ms), "ms", "lower")
            layers["cli.spawn_ms"] = (statistics.median(spawn_ms), "ms", "lower")
            passes = [spawned, plain, traced]
        else:
            plain = self.run_pass(order, self.op_fn())
            tracer.install()
            try:
                traced = self.run_pass(order, self.op_fn(), tracer)
            finally:
                tracer.uninstall()
            passes = [plain, traced]
        overhead = sum(op.norm() for op in traced) / sum(op.norm() for op in plain)
        layers["trace.overhead_ratio"] = (overhead, "ratio", "lower")
        layers.update(tracer.metrics())
        spans_path = ROOT / ".k3bench" / f"spans-{self.args.workload}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
        return passes, layers


def pass_median(passes: list[list], time_of) -> float:
    """Median over passes of the summed time_of(op)."""
    return statistics.median(sum(time_of(op) for op in ops) for ops in passes)


def end_to_end(workload: str, passes: list[list], setups: list[tuple[float, float]]) -> dict:
    """The bounded end-to-end metrics, as name -> (value, unit, direction)."""
    if workload == "cli":
        rss_kb = max(op.parts.get("rss_kb", 0) for ops in passes for op in ops)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(norm for _, norm in setups), "s", "lower"),
        "wall_s": (pass_median(passes, lambda op: op.norm()), "s", "lower"),
        "peak_rss_mb": (rss_kb / 1024, "MB", "lower"),
    }


def workload_detail(workload: str, passes: list[list],
                    setups: list[tuple[float, float]]) -> dict:
    """The workload's own end-to-end figures, printed but not bounded."""
    ops = [op for ops in passes for op in ops]
    out = {"setup_raw_s": (statistics.median(raw for raw, _ in setups), "s", "lower"),
           "wall_raw_s": (pass_median(passes, lambda op: op.seconds), "s", "lower")}
    ms = [1000 * op.norm() for op in ops]
    out["op_ms.p50"] = (statistics.median(ms), "ms", "lower")
    tail = next(((q, v) for q in (99, 95, 90, 75)
                 if (v := percentile(ms, q)) is not None), None)
    if tail:
        out[f"op_ms.p{tail[0]}"] = (tail[1], "ms", "lower")
    if workload == "census":
        out["build_s"] = (pass_median(passes, lambda op: op.norm("build")), "s", "lower")
        out["verify_s"] = (pass_median(passes, lambda op: op.norm("verify")), "s", "lower")
        out["witness_gaps"] = (sum(op.parts["gaps"] for op in passes[0]), "count", "lower")
    elif workload == "fibers":
        for index in (1, 2):
            out[f"index{index}_s"] = (pass_median(
                passes, lambda op: op.norm() if op.parts["index"] == index else 0.0),
                "s", "lower")
    else:
        out["call_ms.p50"] = out["op_ms.p50"]
        p75 = percentile(ms, 75)
        if p75 is not None:
            out["call_ms.p75"] = (p75, "ms", "lower")
        hits = [1000 * op.norm() for op in ops if op.parts.get("hit")]
        if hits:
            out["hit_ms.p50"] = (statistics.median(hits), "ms", "lower")
        out["cache_hits"] = (len(hits), "count", "higher")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "k3lat" / "__init__.py").is_file():
        print(f"k3bench: no k3lat sources at {SRC}; run inside a checkout of the "
              "repository", file=sys.stderr)
        return 2

    workdir = ROOT / ".k3bench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(args, workdir)
        refs, setups = run.start()
        if args.trace:
            passes, metrics = run.trace()
        else:
            passes = run.measure()
            metrics = end_to_end(args.workload, passes, setups)
        refs += ref_window()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for ops in passes for op in ops]
    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        print(f"FAILED {args.workload} {op.label}: {op.note}", file=sys.stderr)
    if args.trace:
        metrics["host.ref_s"] = (statistics.median(refs), "s", "lower")
    shown = dict(metrics)
    if not args.trace:
        shown.update(workload_detail(args.workload, passes, setups))
        shown["error_rate"] = (len(failed) / len(ops), "ratio", "lower")
    print(f"k3bench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops={len(ops)} failed={len(failed)}")
    print(f"host.ref_s start={statistics.median(refs[:REF_REPEATS]):.4f} "
          f"end={statistics.median(refs[REF_REPEATS:]):.4f} s")
    for name, (value, unit, better) in shown.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} ({better} is better)")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
