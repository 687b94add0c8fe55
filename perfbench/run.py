"""The convdef benchmark: drives the `convdef` CLI on seeded inputs and checks every answer.

    python3 perfbench/run.py --workload hochschild --seed 1 --seconds 20 --trace 0

The load is a closed loop: one client, one process, one thread.  An op is
one in-process call to `convdef.cli.main(argv)` on a generated spec file,
with `--out` set and stdout/stderr captured.  A pass runs the workload's
op list once; passes repeat, each on freshly generated inputs, until
`--seconds` have gone by.  The last line of stdout is the result:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
The line before it holds details: percentiles, input and report digests,
and every failed op with its reason.

Times are reported in yardstick seconds (see `yardstick`), which cancels
the drift of the host's speed; the details line keeps the raw wall times.

`correct` is false when an op outside the known-defect list fails.  The
known-defect ops (inputs that crash the CLI at the time the benchmark was
written) are still counted in `failed` and `fail_ratio`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer as spans  # noqa: E402

OP_TIMEOUT_S = 120
SETUP_SAMPLES = 11
SETUP_CODE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "t0 = time.perf_counter()\n"
    "import convdef.cli\n"
    "print(time.perf_counter() - t0)\n"
)

# The host's speed drifts: the same op takes up to 1.75 times as long in one
# run as in another, a few minutes apart, and it swings within a run too.
# So every op is timed between two runs of a fixed computation of the
# benchmark's own, the yardstick, and its wall time is rescaled to a machine
# on which the yardstick takes YARDSTICK_S.  A change to convdef moves the
# op times and not the yardstick.
YARDSTICK_S = 0.005


def _yardstick_inputs() -> tuple[list, list]:
    rng = random.Random(0)
    q = [[Fraction(rng.randint(-3, 3) + 7 * (i == j)) for j in range(6)] for i in range(6)]
    f3 = [[rng.randint(0, 2) for _ in range(12)] for _ in range(12)]
    return q, f3


YARDSTICK_Q, YARDSTICK_F3 = _yardstick_inputs()


def yardstick() -> float:
    """Wall time of a fixed exact-arithmetic computation that shares no code with convdef."""
    t0 = perf_counter()
    for _ in range(2):
        gen.invert(gen.QQ, YARDSTICK_Q)
    gen.matmul(gen.Field(3), YARDSTICK_F3, YARDSTICK_F3)
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time between two yardstick timings, in yardstick seconds."""
    return seconds * 2 * YARDSTICK_S / (before + after)


class OpTimeout(BaseException):
    """Raised inside an op that outlives OP_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class OpResult:
    name: str
    seconds: float
    code: Optional[int]
    error: Optional[str]
    report: Optional[dict]
    report_bytes: Optional[bytes]
    scaled: Optional[float] = None  # `seconds` in yardstick seconds, set by Run.run_pass


class WorkDir:
    """Scratch directory for spec files and reports inside the checkout, removed on exit."""

    def __enter__(self):
        self.path = ROOT / ".perfbench_work" / str(os.getpid())
        self.path.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def import_cli():
    if not (SRC / "convdef" / "cli.py").is_file():
        raise SystemExit(f"convdef sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import convdef.cli

    return convdef.cli


def measure_setup() -> tuple[list[float], list[float]]:
    """Import times of convdef.cli in fresh processes (after one unmeasured warm-up): (wall, scaled)."""
    wall, samples = [], []
    before = yardstick()
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        after = yardstick()
        if i:
            wall.append(float(out.stdout.strip()))
            samples.append(scaled(wall[-1], before, after))
        before = after
    return wall, samples


def run_op(cli, op: gen.Op, work: Path) -> OpResult:
    """One op: write its inputs, call the CLI in-process, and read its report back."""
    for fname, body in op.files.items():
        (work / fname).write_bytes(body)
    out_path = work / "out.json"
    if out_path.exists():
        out_path.unlink()
    argv = [a.replace("{dir}", str(work)) for a in op.argv]
    code, error = None, None
    sink = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        error = f"SystemExit({exc.code})"
    except OpTimeout:
        error = "timeout"
    except Exception as exc:  # an uncaught exception is a failed op, not a failed benchmark
        error = type(exc).__name__
    finally:
        seconds = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    for fname in op.files:
        (work / fname).unlink()
    raw = out_path.read_bytes() if out_path.exists() else None
    report = json.loads(raw) if raw is not None else None
    return OpResult(op.name, seconds, code, error, report, raw)


def problems_of(op: gen.Op, result: OpResult, expected: dict) -> list[str]:
    if result.error == "timeout":
        return ["timeout"]
    problems = []
    if result.code != op.expect_exit:
        problems.append(f"exit {result.code} (want {op.expect_exit})" + (f", {result.error}" if result.error else ""))
    elif op.check is not None:
        if result.report is None:
            problems.append("no report written")
        else:
            problems.extend(checks.check(op, result.report, expected))
    return problems


def percentile_summary(values: list[float]) -> dict:
    """Median plus the highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    ordered = sorted(values)
    for q in (99.9, 99, 95, 90, 75):
        if n * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = ordered[min(n - 1, int(q / 100 * n))]
            break
    return out


class Run:
    """The pass loop of one benchmark process, and everything it records."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli, self.workload, self.seed, self.work = cli, workload, seed, work
        self.expected = checks.load_expected()
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, str] = {}
        self.input_digest = hashlib.sha256()
        self.report_digest = hashlib.sha256()
        self.first_input_digest = None
        self.yardsticks = []
        yardstick()  # warm-up

    def run_pass(self, ops: list[gen.Op]) -> list[OpResult]:
        gc.collect()
        marks = [yardstick()]
        results = []
        for op in ops:
            results.append(run_op(self.cli, op, self.work))
            marks.append(yardstick())
        self.yardsticks.extend(marks)
        for i, (op, result) in enumerate(zip(ops, results)):
            result.scaled = scaled(result.seconds, marks[i], marks[i + 1])
            self.attempted += 1
            problems = problems_of(op, result, self.expected)
            if problems:
                self.failed += 1
                self.unexpected += not op.known_defect
                self.failures.setdefault(op.name, "; ".join(problems))
            if result.report_bytes is not None:
                self.report_digest.update(result.report_bytes)
        return results

    def ops(self, pass_index: int) -> list[gen.Op]:
        ops = gen.ops_for(self.workload, self.seed, pass_index)
        digest = gen.digest_ops(ops)
        self.first_input_digest = self.first_input_digest or digest
        self.input_digest.update(digest.encode())
        return ops

    def details(self, passes: int) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "passes": passes,
            "input_digest_pass0": self.first_input_digest,
            "input_digest": self.input_digest.hexdigest(),
            "report_digest": self.report_digest.hexdigest(),
            "failures": self.failures,
        }


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off; the set-up samples count against `seconds`."""
    start = perf_counter()
    setup_walls, setup = measure_setup()
    pass_times, pass_walls = [], []
    walls = []  # a pass with its input generation and answer checks, to stop within `seconds`
    op_times: dict[str, list[float]] = {}
    p = 0
    while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
        t0 = perf_counter()
        results = run.run_pass(run.ops(p))
        walls.append(perf_counter() - t0)
        pass_times.append(sum(r.scaled for r in results))
        pass_walls.append(sum(r.seconds for r in results))
        for r in results:
            op_times.setdefault(r.name, []).append(r.scaled)
        p += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The typical op: the median over the op list of each op's median over passes.
    # Pooling all samples instead would put the median in the tail of whichever
    # op straddles the middle rank, which moves with every pass's noise.
    op_medians = {name: statistics.median(v) for name, v in op_times.items()}
    metrics = {
        "pass_s": (statistics.median(pass_times), "s"),
        "op_s.p50": (statistics.median(op_medians.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "fail_ratio": (run.failed / run.attempted, "ratio"),
    }
    details = dict(
        run.details(p),
        pass_s=percentile_summary(pass_times),
        pass_times=pass_times,
        op_s=percentile_summary([t for v in op_times.values() for t in v]),
        op_medians=op_medians,
        setup_s=percentile_summary(setup),
        wall_s={"pass": statistics.median(pass_walls), "setup": statistics.median(setup_walls)},
        yardstick_s=percentile_summary(run.yardsticks),
    )
    return metrics, details


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: each pass runs once untraced and once traced on the same inputs."""
    tracer = spans.Tracer()
    plain, traced, periods, unattributed, walls = [], [], [], [], []
    start = perf_counter()
    p = 0
    while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
        t0 = perf_counter()
        ops = run.ops(p)
        plain.append(sum(r.scaled for r in run.run_pass(ops)))
        tracer.install()
        try:
            tracer.reset()
            results = run.run_pass(ops)
        finally:
            tracer.restore()
        wall = sum(r.scaled for r in results)
        # span times in yardstick seconds too, at the pass's mean rate
        rate = wall / sum(r.seconds for r in results)
        totals = {k: v * rate if k.endswith("_s") else v for k, v in tracer.reset().items()}
        traced.append(wall)
        unattributed.append(wall - sum(v for k, v in totals.items() if k.endswith(".self_s")))
        periods.append(totals)
        walls.append(perf_counter() - t0)
        p += 1
    first = periods[0]
    metrics = {}
    for name, unit in spans.LAYER_METRICS.items():
        if name.endswith("_s") and name != "unattributed_s":
            value = statistics.median(period.get(name, 0.0) for period in periods)
        else:
            value = first.get(name, 0)
        metrics[name] = (value, unit)
    materialized = first.get("deformation.materialize.calls", 0)
    metrics["deformation.kept_ratio"] = (first.get("deformation.kept", 0) / materialized if materialized else 0.0, "ratio")
    metrics["unattributed_s"] = (statistics.median(unattributed), "s")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    details = dict(
        run.details(p),
        absent=tracer.absent,
        count_errors=sorted(tracer.count_errors),
        min_unattributed_s=min(unattributed),
    )
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_cli()
    signal.signal(signal.SIGALRM, _on_alarm)
    with WorkDir() as work:
        run = Run(cli, args.workload, args.seed, work.path)
        if args.trace:
            metrics, details = measure_traced(run, args.seconds)
        else:
            metrics, details = measure(run, args.seconds)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": run.unexpected == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
