"""A ladder of large instances, each run in a fresh, capped process; writes one JSON file.

    python3 ladder/run.py --out BENCH_<n>.json [--rung NAME ...] [--repeat K] [--timeout S]

Run from the repository root.  Each rung is one call of
`convdef.cli.main`, imported from `src/`, on a spec file that
`perfbench/gen.py` builds.  A Hochschild rung is `cohomology --degree n`
on an algebra written in a basis changed by `gen.change` with
`random.Random(7)` (a monomial change for a sparse rung, a dense
invertible one for a dense rung).  The `series` rung grows an algebra,
in such a basis, along k[t]_{<=N} with the `first` strategy, as the
benchmark's `deform` workload does at smaller sizes; the `invert` rung
inverts an a x a morphism over k[t]_{<=N} built as the `gauge` workload
builds its own, its entries drawn with `random.Random(7)`.  The inputs
depend on the rung alone, so two commits run the same bytes.

Every run of a rung is a new Python process under a 2 GiB address-space
cap (`RLIMIT_AS`) and a timeout.  It records the wall time of the
whole process and of `main` alone, its peak RSS, the exit code, the
answer (the dimensions of Z^n, B^n and H^n of a Hochschild rung, those of
Z^2 and H^2 at each step of a series) and the SHA-256 of the `--out` report, so
two files show whether the reports are byte-identical.  A run that is
stopped records why instead: "timeout", "memory cap" or the signal that
killed it.  The file also records the commit, whether `src/` differs from
it, a digest of `src/convdef`, the Python version and the machine.  A
claim compares two files written on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

# Hochschild rungs: (name, algebra, degree, field, basis kind)
HOCHSCHILD = [
    ("M_2 dense n=3 Q", "mat2", 3, "Q", "dense"),
    ("k[x]/(x^4) dense n=3 Q", "trunc4", 3, "Q", "dense"),
    ("k[x]/(x^6) sparse n=4 F32003", "trunc6", 4, "F32003", "sparse"),
    ("k[x]/(x^8) sparse n=3 Q", "trunc8", 3, "Q", "sparse"),
    ("k[x]/(x^5) dense n=3 F32003", "trunc5", 3, "F32003", "dense"),
    ("M_2 sparse n=5 F32003", "mat2", 5, "F32003", "sparse"),
]
# series rungs: (name, algebra, N of k[t]_{<=N}, field, basis kind)
SERIES = [("series M_2 dense k[t]_{<=6} Q", "mat2", 6, "Q", "dense")]
# invert rungs: (name, N of k[t]_{<=N}, a, field)
INVERT = [("invert k[t]_{<=8} a=24 Q", 8, 24, "Q")]

MEM_CAP = 2 << 30  # bytes of address space a run may take

ALGEBRAS = {"mat2": lambda f: gen.matrix_algebra(f, 2)}
ALGEBRAS.update({f"trunc{k}": (lambda k: lambda f: gen.truncated_poly(f, k))(k) for k in (4, 5, 6, 8)})

# one run: `main` under the cap, then a JSON line with its time, its peak RSS and its exit code (or why it stopped)
CHILD = """
import json, resource, sys, time
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.path.insert(0, sys.argv[2])
start = time.perf_counter()
try:
    from convdef.cli import main
    start = time.perf_counter()
    code = main(sys.argv[3:])
except MemoryError:
    code = "memory cap"
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "main_s": seconds, "peak_rss_mib": rss}))
"""


def spec_bytes(alg: str, fname: str, kind: str) -> bytes:
    """The spec file of a Hochschild rung: its algebra over k, in a basis changed by `gen.change` with random.Random(7)."""
    f = gen.field_named(fname)
    m, unit = ALGEBRAS[alg](f)
    p, pinv = gen.change(f, len(unit), kind, random.Random(7))
    block = gen.algebra_block(f, gen.K, "K", [gen.transport(f, m, p, pinv)], gen.mvec(f, pinv, unit))
    return gen.dump(gen.spec_doc(f, coalgebras={"K": gen.K.spec()}, algebras={"A": block}))


def series_spec_bytes(alg: str, n_max: int, fname: str, kind: str) -> bytes:
    """The algebra over k in a basis changed by `gen.change` with random.Random(7), and k[t]_{<=N} to grow it along."""
    f = gen.field_named(fname)
    m, unit = ALGEBRAS[alg](f)
    p, pinv = gen.change(f, len(unit), kind, random.Random(7))
    return gen._series_spec(f, gen.poly_coalgebra(1, n_max), gen.transport(f, m, p, pinv), gen.mvec(f, pinv, unit))


def invert_spec_bytes(n_max: int, a: int, fname: str) -> bytes:
    """f = S (D, B_1, ..., B_N) S' over k[t]_{<=N}: D unimodular, the B_k and the signed permutations S, S' from random.Random(7)."""
    f = gen.field_named(fname)
    c, rng = gen.poly_coalgebra(1, n_max), random.Random(7)
    base = [gen.unimodular(f, a)] + [[[f.small(rng) for _ in range(a)] for _ in range(a)] for _ in range(n_max)]
    s1, _ = gen.signed_permutation(f, a, rng)
    s2, _ = gen.signed_permutation(f, a, rng)
    comps = [gen.matmul(f, s1, gen.matmul(f, b, s2)) for b in base]
    return gen.dump(gen.spec_doc(f, coalgebras={"D": c.spec()}, morphisms={"f": gen._morphism_block(f, c, comps)}))


def rungs() -> list[tuple[dict, object, list, object]]:
    """Each rung as (record header, a function making its spec bytes, command and options, its answer from a report)."""
    out = []
    for name, alg, degree, fname, kind in HOCHSCHILD:
        a = len(ALGEBRAS[alg](gen.field_named(fname))[1])
        header = {"name": name, "algebra": alg, "degree": degree, "field": fname, "basis": kind,
                  "d_shape": [a ** (degree + 2), a ** (degree + 1)]}
        out.append((header, lambda alg=alg, fname=fname, kind=kind: spec_bytes(alg, fname, kind),
                    ["cohomology", "--degree", str(degree)],
                    lambda report: {"dims": {key: report[key] for key in ("dim_z", "dim_b", "dim_h")}}))
    for name, alg, n_max, fname, kind in SERIES:
        out.append(({"name": name, "command": "series", "algebra": alg, "max_degree": n_max, "field": fname,
                     "basis": kind},
                    lambda alg=alg, n_max=n_max, fname=fname, kind=kind: series_spec_bytes(alg, n_max, fname, kind),
                    ["series", "--algebra", "A0", "--coalgebra", "D", "--max-degree", str(n_max), "--strategy", "first"],
                    lambda report: {"dims": [{key: step[key] for key in ("dim_z2", "dim_h2")} for step in report["steps"]]}))
    for name, n_max, a, fname in INVERT:
        out.append(({"name": name, "command": "invert", "max_degree": n_max, "a_dim": a, "field": fname},
                    lambda n_max=n_max, a=a, fname=fname: invert_spec_bytes(n_max, a, fname),
                    ["invert", "--morphism", "f"], None))
    return out


def run_once(spec: Path, argv: list, answer, out: Path, timeout: float) -> dict:
    """One fresh process on the spec: its record, or why it stopped."""
    command, *options = argv
    argv = [sys.executable, "-c", CHILD, str(MEM_CAP), str(SRC), command, str(spec), *options, "--out", str(out)]
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"stopped": f"timeout after {timeout:g} s"}
    wall = time.perf_counter() - start
    if done.returncode < 0:
        return {"stopped": f"killed by signal {-done.returncode}"}
    lines = done.stdout.splitlines()
    try:
        child = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"stopped": f"exit {done.returncode} without a record", "stderr": done.stderr[-2000:]}
    if child["code"] == "memory cap":
        return {"stopped": "memory cap", "wall_s": wall}
    record = {"exit": child["code"], "wall_s": wall, "main_s": child["main_s"], "peak_rss_mib": child["peak_rss_mib"]}
    if out.exists():
        data = out.read_bytes()
        if answer is not None:
            record.update(answer(json.loads(data)))
        record["report_sha256"] = hashlib.sha256(data).hexdigest()
    elif done.stderr:
        record["stderr"] = done.stderr[-2000:]
    return record


def run_rung(header: dict, spec_of, argv: list, answer, args, work: Path) -> dict:
    spec = work / "spec.json"
    spec.write_bytes(spec_of())
    runs = [run_once(spec, argv, answer, work / "out.json", args.timeout) for _ in range(args.repeat)]
    rung = dict(header, runs=runs)
    done = [r for r in runs if "stopped" not in r]
    if done:
        rung["wall_s_median"] = statistics.median(r["wall_s"] for r in done)
        rung["peak_rss_mib_max"] = max(r["peak_rss_mib"] for r in done)
        timing = {"exit", "wall_s", "main_s", "peak_rss_mib", "stderr"}
        for key in sorted({key for r in done for key in r} - timing):
            values = {json.dumps(r.get(key), sort_keys=True) for r in done}
            rung[key] = json.loads(values.pop()) if len(values) == 1 else "differs between runs"
    return rung


def _git(*argv: str) -> str:
    try:
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        return ""


def provenance() -> dict:
    digest = hashlib.sha256()
    for p in sorted((SRC / "convdef").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "commit": _git("rev-parse", "HEAD") or None,
        "src_differs_from_commit": bool(_git("status", "--porcelain", "--", "src")),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "arch": platform.machine(), "cpu": cpu, "cpus": os.cpu_count()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, help="the JSON file to write, BENCH_<n>.json by convention")
    parser.add_argument("--rung", action="append", choices=[r[0]["name"] for r in rungs()], help="run only these rungs")
    parser.add_argument("--repeat", type=int, default=3, help="fresh processes per rung (default 3)")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds before a run is stopped (default 300)")
    args = parser.parse_args(argv)
    chosen = [r for r in rungs() if not args.rung or r[0]["name"] in args.rung]
    result = dict(provenance(), started=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                  repeat=args.repeat, timeout_s=args.timeout, mem_cap_bytes=MEM_CAP, rungs=[])
    with tempfile.TemporaryDirectory(prefix="convdef-ladder-") as tmp:
        for rung in chosen:
            result["rungs"].append(run_rung(*rung, args, Path(tmp)))
            last = result["rungs"][-1]
            print(f"{last['name']}: {last.get('wall_s_median', 'stopped')}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
