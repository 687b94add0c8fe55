"""Answer checks that do not use the code under test.

* Hochschild dimensions come from closed forms: Holm (2000) for
  k[x]/(x^n), whose dimensions change when char | n, and Morita
  invariance, which gives HH^{>=1}(M_k) = 0.  dim Z and dim B then follow
  from dim C^n = a^(n+1) and dim B^n = dim C^(n-1) - dim Z^(n-1).
* `invert` answers are multiplied back (f * g = g * f = e) and `unit-gauge`
  answers are re-verified, both in this package's own arithmetic.
* `series` results are checked for associativity in the same arithmetic.
* Everything else is compared with a table recorded at the seed commit
  (expected.json), keyed by instance.  The table holds only quantities that
  do not depend on the basis, so every pass's fresh change of basis leaves
  them fixed.

Run `python3 perfbench/checks.py --record` to rewrite the table from the
current program; do that only on a commit whose answers are trusted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gen

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- closed forms -------------------------------------------------------------


def hh_dims(algebra: str, p: int, top: int) -> list[int]:
    """dim HH^i for i = 0..top, or an empty list when no closed form is known."""
    if algebra.startswith("trunc"):
        n = int(algebra[5:])
        if p and n % p == 0:
            return [n] * (top + 1)
        return [n] + [n - 1] * top
    if algebra == "mat2":
        return [1] + [0] * top
    return []


def complex_dims(algebra: str, a: int, p: int, degree: int):
    """(dim Z^n, dim B^n, dim H^n) of the Hochschild complex, or None."""
    h = hh_dims(algebra, p, degree)
    if not h:
        return None
    b = 0
    for i in range(degree + 1):
        z = h[i] + b
        if i == degree:
            return z, b, h[i]
        b = a ** (i + 1) - z
    raise AssertionError("unreachable")


# -- invariants for the recorded table --------------------------------------------

_KEYS = {
    "deform": ("obstruction_vanishes", "dim_z2", "dim_b2", "dim_h2", "coset_count"),
    "obstruct": ("zeta_is_zero", "class_vanishes"),
    "classify": ("obstruction_vanishes", "dim_z2", "dim_b2", "dim_h2", "coset_count"),
    "cohomology": ("dim_z", "dim_b", "dim_h"),
    "series": ("max_degree", "strategy", "stopped_at"),
}


def invariants(report: dict) -> dict:
    """The basis-independent part of a report."""
    command = report.get("command")
    out = {"command": command}
    for key in _KEYS.get(command, ()):
        out[key] = report.get(key)
    if "representatives" in report:
        out["representatives"] = len(report["representatives"])
    if command == "series":
        out["steps"] = [
            [s["degree"], s["obstruction_vanishes"], s["dim_z2"], s["dim_h2"], "chosen" in s]
            for s in report.get("steps", [])
        ]
    return out


# -- checks -----------------------------------------------------------------------


def _matrices(f: gen.Field, c: gen.Coalg, obj: dict, rows: int, cols: int) -> list:
    """A {basis name: matrix} report object as one matrix per basis element."""
    return [
        [[f.parse(x) for x in row] for row in obj[name]] if name in obj else gen.zeros(f, rows, cols)
        for name in c.names
    ]


def _check_hochschild(op, report: dict, expected: dict) -> list[str]:
    params = op.check[1]
    f = gen.field_named(params["field"])
    a = len(gen.ALGEBRAS[params["algebra"]](f)[1])
    dims = complex_dims(params["algebra"], a, f.p, params["degree"])
    if dims is None:
        return _check_table(op, report, expected)
    got = (report.get("dim_z"), report.get("dim_b"), report.get("dim_h"))
    problems = [] if got == dims else [f"dims (Z, B, H) {got} != closed form {dims}"]
    if len(report.get("representatives", ())) != dims[2]:
        problems.append("representative count differs from dim H")
    return problems


def _check_table(op, report: dict, expected: dict) -> list[str]:
    want = expected.get(op.name)
    if want is None:
        return [f"no recorded answer for {op.name}"]
    got = invariants(report)
    return [] if got == want else [f"answer {got} != recorded {want}"]


def _check_series(op, report: dict, expected: dict) -> list[str]:
    problems = _check_table(op, report, expected)
    p = op.check[1]
    f, d, m0 = p["field"], p["coalgebra"], p["m0"]
    a = len(m0)
    m = _matrices(f, d, report["final_multiplication"], a, a * a)
    if m[0] != m0:
        problems.append("final multiplication does not restrict to the input algebra")
    if not gen.is_associative(f, d, m):
        problems.append("final multiplication is not associative")
    return problems


def _check_invert(op, report: dict, expected: dict) -> list[str]:
    p = op.check[1]
    f, c, comps = p["field"], p["coalgebra"], p["f"]
    a = len(comps[0])
    g = _matrices(f, c, report["inverse"], a, a)
    e = gen.conv_identity(f, c, gen.identity(f, a))
    if gen.conv_compose(f, c, comps, g) != e or gen.conv_compose(f, c, g, comps) != e:
        return ["reported inverse is not a two-sided convolution inverse"]
    return []


def _check_unit_gauge(op, report: dict, expected: dict) -> list[str]:
    p = op.check[1]
    f, d, m, unit = p["field"], p["coalgebra"], p["m"], p["unit"]
    a = len(unit)
    gauge = _matrices(f, d, report["gauge"], a, a)
    m_f = _matrices(f, d, report["transported_multiplication"], a, a * a)
    u_tilde = _matrices(f, d, report["unit_of_original"], a, 1)
    u_lam = [[[x] for x in unit]] + [gen.zeros(f, a, 1)] * (d.dim - 1)
    problems = []
    if gauge[0] != gen.identity(f, a):
        problems.append("gauge does not restrict to the identity in degree 0")
    if m_f != gen.gauge_transport(f, d, m, gauge):
        problems.append("transported multiplication is not f^-1 * m * (f (x) f)")
    if not gen.is_unit(f, d, m_f, u_lam):
        problems.append("u o lambda is not a unit of the transported multiplication")
    if not gen.is_unit(f, d, m, u_tilde):
        problems.append("reported unit is not a unit of the input multiplication")
    return problems


CHECKS = {
    "hochschild": _check_hochschild,
    "table": _check_table,
    "series": _check_series,
    "invert": _check_invert,
    "unit_gauge": _check_unit_gauge,
}


def check(op, report: dict, expected: dict) -> list[str]:
    """Problems with one op's --out report; empty when the answer is right."""
    return CHECKS[op.check[0]](op, report, expected)


def record(seed: int = 1) -> dict:
    """Run pass 0 of every workload and tabulate the invariants of table-checked ops."""
    import run

    cli = run.import_cli()
    table = {}
    with run.WorkDir() as work:
        for workload in gen.WORKLOADS:
            for op in gen.ops_for(workload, seed, 0):
                if op.check is None or op.check[0] not in ("table", "series", "hochschild"):
                    continue
                if op.check[0] == "hochschild" and hh_dims(op.check[1]["algebra"], 0, 0):
                    continue
                result = run.run_op(cli, op, work.path)
                if result.code != op.expect_exit or result.report is None:
                    raise SystemExit(f"{op.name}: exit {result.code}, cannot record")
                table[op.name] = invariants(result.report)
    return table


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/checks.py --record")
    EXPECTED_PATH.write_text(json.dumps(record(), sort_keys=True, indent=1) + "\n", encoding="utf-8")
