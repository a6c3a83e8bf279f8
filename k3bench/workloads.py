"""Inputs, passes and golden checks of the three k3bench workloads.

Every pass runs the same fixed inputs; the seed only shuffles their order.
An operation fails when it raises or when its output differs from the
golden value recorded in ``golden.json``.  Witness columns are never
goldened, because a better isometry search may find different witnesses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

CENSUS_PRIMES = [p for p in range(3, 260)
                 if p % 4 == 3 and all(p % q for q in range(2, int(p ** 0.5) + 1))]
CENSUS_D0 = 1
CENSUS_HEIGHT_BOUND = 10

FIBER_CASES = [(1, 2), (1, 4), (1, 6), (1, 8), (2, 2)]  # (overlattice index, d)
HEXAGONAL = [[2, -1], [-1, 2]]

E8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
      [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
      [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]
E8_ARG = "@E8.json"  # replaced by the path of the file written at set-up
# two ternaries of the p = 239 census family (forms (2,2,120) and (6,-2,40))
P239_A = "2,1,0;1,120,0;0,0,-1"
P239_B = "6,-1,0;-1,40,0;0,0,-1"
# A8 root lattice: determinant 9, discriminant group Z/9
A8 = ";".join(",".join(str(2 if i == j else -1 if abs(i - j) == 1 else 0)
                       for j in range(8)) for i in range(8))

CLI_MIX = [
    ["k3", "fm-count", "-d", "12"],
    ["cm", "bound", "--degree", "21"],
    ["qform", "classgroup", "-D", "-4000000"],
    ["qform", "classgroup", "-D", "-4000000"],
    ["qform", "classgroup", "-D", "-4000000"],
    ["lattice", "vectors", "--gram", E8_ARG, "-n", "4"],
    ["lattice", "vectors", "--gram", E8_ARG, "-n", "4"],
    ["lattice", "vectors", "--gram", E8_ARG, "-n", "4"],
    ["k3", "unbounded", "-p", "31"],
    ["qform", "genus-check", "-p", "199"],
    ["genus", "same", "--gram1", P239_A, "--gram2", P239_B],
    ["lattice", "disc-group", "--gram", A8],
    ["lattice", "signature", "--gram", "1,2;3"],  # malformed: exit 2, input-error
]
# fields of the certificate document that depend on the witnesses found
WITNESS_FIELDS = ("isometry_witnesses", "classes", "witness_gaps")


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    """One benchmark operation: its time, outcome and golden-checked output."""

    label: str
    seconds: float
    ok: bool
    observed: dict = field(default_factory=dict)
    parts: dict = field(default_factory=dict)
    note: str = ""
    scale: float = 1.0  # reference-host seconds per measured second

    def norm(self, part: str | None = None) -> float:
        """The operation's time (or a timed part of it) in reference-host seconds."""
        return (self.seconds if part is None else self.parts[part]) * self.scale


def check(op: Op, golden: dict | None) -> Op:
    """Mark op failed unless its observed output equals the golden value."""
    if golden is None or not op.ok:
        return op
    want = golden.get(op.label)
    if want != op.observed:
        op.ok = False
        op.note = f"golden mismatch: want {want}, got {op.observed}"
    return op


# -- set-up ------------------------------------------------------------------


@dataclass
class Inputs:
    workdir: Path
    k3lat: object
    period: object = None
    e8_path: Path | None = None


def setup(workload: str, workdir: Path) -> Inputs:
    """Import k3lat and build the workload's inputs."""
    import k3lat

    inputs = Inputs(Path(workdir), k3lat)
    if workload == "fibers":
        from k3lat import cm
        from k3lat.lattice import Lattice

        field_ = cm.CMField.imaginary_quadratic(3)
        zeta6 = field_.element((Fraction(1, 2), Fraction(1, 2)))
        inputs.period = cm.PeriodVector(Lattice(HEXAGONAL), (field_.one(), zeta6))
    elif workload == "cli":
        import k3lat.cli  # noqa: F401  (used by in-process traced runs)

        inputs.workdir.mkdir(parents=True, exist_ok=True)
        inputs.e8_path = inputs.workdir / "E8.json"
        inputs.e8_path.write_text(json.dumps(E8), encoding="utf-8")
    return inputs


def timed_setup(workload: str, workdir: Path) -> tuple[float, Inputs]:
    start = time.perf_counter()
    inputs = setup(workload, workdir)
    return time.perf_counter() - start, inputs


# -- census ------------------------------------------------------------------


def census_op(inputs: Inputs, p: int, golden: dict | None) -> Op:
    census = inputs.k3lat.census
    clock = time.perf_counter
    try:
        t0 = clock()
        cert = census.build_unbounded_family(p, CENSUS_D0, CENSUS_HEIGHT_BOUND)
        t1 = clock()
        doc = json.loads(json.dumps(census.certificate_to_json(cert)))
        verified = census.verify_certificate(census.certificate_from_json(doc))
        t2 = clock()
    except Exception as exc:  # a failed operation is counted, the run goes on
        return Op(str(p), 0.0, False, note=repr(exc))
    invariants = sorted(
        [i.norm, list(i.ambient_disc), list(i.complement_disc), list(i.complement_class)]
        for i in cert.complement_invariants)
    observed = {"h": cert.h, "orbits": cert.distinct_orbit_lower_bound,
                "invariants": digest(invariants), "verified": verified is True}
    op = Op(str(p), t2 - t0, True, observed,
            {"build": t1 - t0, "verify": t2 - t1, "gaps": len(cert.witness_gaps)})
    return check(op, golden)


# -- fibers ------------------------------------------------------------------


def fiber_op(inputs: Inputs, case: tuple[int, int], golden: dict | None) -> Op:
    cm = inputs.k3lat.cm
    index, d = case
    label = f"index{index}-d{d}"
    try:
        start = time.perf_counter()
        found = cm.enumerate_period_embeddings(inputs.period, d, overlattice_index=index)
        seconds = time.perf_counter() - start
    except Exception as exc:  # a failed operation is counted, the run goes on
        return Op(label, 0.0, False, note=repr(exc))
    records = sorted(
        json.dumps({"matrix": [list(c) for c in pe.embedding.columns],
                    "lambda": [str(c) for c in pe.lam.coords],
                    "lambda_prime": [str(c) for c in pe.lam_prime.coords],
                    "nu": [str(c) for c in pe.nu.coords]}, sort_keys=True)
        for pe in found)
    observed = {"count": len(found), "embeddings": digest(records)}
    return check(Op(label, seconds, True, observed, {"index": index}), golden)


# -- cli ---------------------------------------------------------------------


def cli_argv(template: list[str], inputs: Inputs, cache_dir: Path) -> list[str]:
    argv = [f"@{inputs.e8_path}" if a == E8_ARG else a for a in template]
    return argv + ["--json", "--cache-dir", str(cache_dir)]


def stdout_digest(stdout: bytes) -> str:
    """sha256 of the --json output, with witness-dependent fields removed
    from certificate documents."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return hashlib.sha256(stdout).hexdigest()
    result = doc.get("result") if isinstance(doc, dict) else None
    if isinstance(result, dict) and result.get("kind") == "unbounded_family_certificate":
        for key in WITNESS_FIELDS:
            result.pop(key, None)
        return digest(doc)
    return hashlib.sha256(stdout).hexdigest()


def cache_entries(cache_dir: Path) -> int:
    try:
        return sum(1 for n in os.listdir(cache_dir) if n.endswith(".json"))
    except FileNotFoundError:
        return 0


def child_env(src: Path) -> dict:
    """Environment of every k3lat child: src on the path, no inherited cache."""
    env = dict(os.environ)
    env.pop("K3LAT_CACHE_DIR", None)
    env["PYTHONPATH"] = str(src)
    return env


def spawn_cli(argv: list[str], env: dict, workdir: Path) -> tuple[float, int, bytes, int, str]:
    """Run ``python -m k3lat argv`` to completion.

    Returns (seconds from spawn to exit, exit code, stdout, peak RSS in KiB of
    that child, stderr text).
    """
    err_path = workdir / "cli-stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "k3lat", *argv], env=env,
                                cwd=workdir, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out, usage.ru_maxrss, err_path.read_text(errors="replace")


class CliPass:
    """One pass of the mix: a fresh memo cache, and the first output of each
    call, which every repeat (a cache hit) must reproduce byte for byte."""

    def __init__(self, inputs: Inputs, golden: dict | None, cache_dir: Path, env=None):
        self.inputs, self.golden, self.cache_dir, self.env = inputs, golden, cache_dir, env
        self.seen: dict[str, bytes] = {}

    def spawned(self, template: list[str]) -> Op:
        """Run the call in a fresh ``python -m k3lat`` process."""
        argv = cli_argv(template, self.inputs, self.cache_dir)
        before = cache_entries(self.cache_dir)
        seconds, rc, out, rss_kb, err = spawn_cli(argv, self.env, self.inputs.workdir)
        op = self._finish(template, rc, out, seconds, before,
                          note=err[-500:] if rc not in (0, 2) else "")
        op.parts["rss_kb"] = rss_kb
        return op

    def inprocess(self, template: list[str]) -> Op:
        """Run the call through ``k3lat.cli.run`` in this process."""
        argv = cli_argv(template, self.inputs, self.cache_dir)
        before = cache_entries(self.cache_dir)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                res = self.inputs.k3lat.cli.run(argv)
                seconds = time.perf_counter() - start
        except Exception as exc:  # a failed operation is counted, the run goes on
            return Op(" ".join(template), 0.0, False, note=repr(exc))
        out = (json.dumps(res.payload, sort_keys=True, separators=(",", ":")) + "\n").encode()
        return self._finish(template, res.exit_code, out, seconds, before)

    def _finish(self, template, rc, out, seconds, entries_before, note="") -> Op:
        label = " ".join(template)
        # a repeated call that wrote no cache entry was answered from the cache
        hit = label in self.seen and cache_entries(self.cache_dir) == entries_before
        observed = {"exit": rc, "stdout": stdout_digest(out)}
        op = check(Op(label, seconds, True, observed, {"hit": hit}, note), self.golden)
        if op.ok and self.seen.setdefault(label, out) != out:
            op.ok = False
            op.note = "cache hit differs from its miss"
        return op
