"""Batch command-line front end.

Exit codes: 0 success, 1 input error (usage/io/syntax/reference/dimension/axiom),
2 mathematical failure (failed validation report, nonzero obstruction for
`deform`, non-invertible morphism for `invert`).  Human-readable summary
goes to stdout; `--out` writes a stable machine-readable JSON report.  The
summary is held back until the report has rendered, so an answer that
cannot be reported (exit 1) prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys
from typing import Optional

from .cohomology import Cochain, ComplexSpec
from .coalgebra import Coalgebra
from .convolution import takeuchi_invert
from .deformation import (
    classify,
    mc_solve,
    series_deform,
    unit_gauge,
)
from .errors import ConvDefError, NotInvertible, SpecFileError
from .extension import Comodule, build_extension
from .specfile import (
    SpecFile,
    cochain_to_obj,
    morphism_to_obj,
    parse_cochain_file,
    parse_path,
    render_report,
)


class MathFailure(Exception):
    """A mathematically negative answer (exit code 2)."""


def _task_str(task: dict, key: str, cli_value: Optional[str], default: Optional[str] = None):
    v = cli_value or task.get(key)
    if v is None:
        return default
    if not isinstance(v, str):
        raise SpecFileError("syntax", f"task {key!r} must be a string")
    return v


def _pick(table: dict, kind: str, task: dict, cli_value: Optional[str]):
    name = _task_str(task, kind, cli_value)
    if name is not None:
        if name not in table:
            raise SpecFileError("reference", f"unknown {kind} {name!r}")
        return name, table[name]
    if len(table) == 1:
        return next(iter(table.items()))
    raise SpecFileError(
        "reference",
        f"{kind} block required ({'none' if not table else 'several'} defined; pick one)",
    )


def _default_comodule(c: Coalgebra) -> Comodule:
    # Hochschild case: over the trivial one-dimensional coalgebra the free
    # rank-one comodule is canonical.
    f = c.field
    if c.dim == 1 and c.delta[0] == ((0, 0, f.one),) and c.counit[0] == f.one:
        return Comodule(c, 1, [[(0, 0, 1)]])
    raise SpecFileError("reference", "a comodule block is required for this coalgebra")


def _int_param(task: dict, key: str, cli_value: Optional[int], what: str) -> int:
    v = cli_value if cli_value is not None else task.get(key)
    flag = f"--{key.replace('_', '-')}"
    if not isinstance(v, int) or isinstance(v, bool):
        raise SpecFileError("dimension", f"{what} required (flag {flag})")
    if v < 0:
        raise SpecFileError("dimension", f"{what} must be >= 0 (flag {flag}), got {v}")
    return v


def _write_out(path: Optional[str], payload: dict) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_report(payload))


def _report_header(sf: SpecFile, command: str) -> dict:
    return {"command": command, "field": sf.field.name}


def cmd_validate(sf: SpecFile, failures: list[str], args) -> dict:
    """Render the checks `parse_text` ran on every block, without running any again."""
    lines = []
    objects = {}
    for (kind, name), result in sf.checks.items():
        if kind == "coalgebra":
            objects[f"coalgebra:{name}"] = {key: getattr(result, key) for key in result._fields}
            lines.append(f"coalgebra {name}: {'ok' if result.ok else 'FAILED'}"
                         f" (cocommutative: {'yes' if result.cocommutative else 'no'})")
        else:
            objects[f"{kind}:{name}"] = {"failures": result}
            lines.append(f"{kind} {name}: {'ok' if not result else 'FAILED: ' + ', '.join(result)}")
    print("\n".join(lines) if lines else "nothing to validate")
    if failures:
        raise MathFailure("validation failed: " + "; ".join(failures))
    return {"objects": objects, "ok": True}


def cmd_cohomology(sf: SpecFile, args) -> dict:
    aname, alg = _pick(sf.algebras, "algebra", sf.task, args.algebra)
    degree = _int_param(sf.task, "degree", args.degree, "cohomology degree")
    if sf.comodules or args.comodule or "comodule" in sf.task:
        xname, com = _pick(sf.comodules, "comodule", sf.task, args.comodule)
    else:
        xname, com = "(trivial)", _default_comodule(alg.coalgebra)
    spec = ComplexSpec(alg.m, com)
    res = spec.cohomology(degree)
    print(f"dim Z^{degree} = {res.dim_z}")
    print(f"dim B^{degree} = {res.dim_b}")
    print(f"dim H^{degree} = {res.dim_h}")
    return {
        "algebra": aname,
        "comodule": xname,
        "degree": degree,
        "dim_z": res.dim_z,
        "dim_b": res.dim_b,
        "dim_h": res.dim_h,
        "representatives": [cochain_to_obj(r) for r in res.representatives],
    }


def _extension_setup(sf: SpecFile, args):
    aname, alg = _pick(sf.algebras, "algebra", sf.task, args.algebra)
    wname, w = _pick(sf.cocycles, "cocycle", sf.task, getattr(args, "cocycle", None))
    if alg.coalgebra != w.comodule.base:
        raise SpecFileError(
            "reference", f"algebra {aname!r} and cocycle {wname!r} live over different coalgebras"
        )
    ext = build_extension(w)
    return aname, alg, wname, ext


def cmd_obstruct(sf: SpecFile, args) -> dict:
    aname, alg, wname, ext = _extension_setup(sf, args)
    report = mc_solve(alg, ext)
    print(f"obstruction 3-cocycle computed; d^3(zeta) = 0 holds")
    print(f"zeta is {'zero' if report.zeta.is_zero() else 'nonzero'}; "
          f"class {'vanishes (coboundary)' if report.obstruction_vanishes else 'NONZERO'}")
    payload = {
        "algebra": aname,
        "cocycle": wname,
        "zeta": cochain_to_obj(report.zeta),
        "zeta_is_zero": report.zeta.is_zero(),
        "class_vanishes": report.obstruction_vanishes,
    }
    if report.zeta_class_rep is not None:
        payload["class_representative"] = cochain_to_obj(report.zeta_class_rep)
    return payload


def cmd_deform(sf: SpecFile, args) -> dict:
    aname, alg, wname, ext = _extension_setup(sf, args)
    report = mc_solve(alg, ext)
    payload = {
        "algebra": aname,
        "cocycle": wname,
        "obstruction_vanishes": report.obstruction_vanishes,
        "dim_z2": report.dim_z2,
        "dim_b2": report.dim_b2,
        "dim_h2": report.dim_h2,
    }
    if not report.obstruction_vanishes:
        payload["class_representative"] = cochain_to_obj(report.zeta_class_rep)
        _write_out(args.out, dict(_report_header(sf, "deform"), **payload))
        raise MathFailure(
            "obstruction class is nonzero in H^3; no deformation exists "
            "(canonical class representative in the report)"
        )
    payload["base_solution"] = cochain_to_obj(report.base_solution)
    payload["nu0"] = cochain_to_obj(report.nu0)
    if report.coset_count is not None:
        payload["coset_count"] = report.coset_count
    print(f"Maurer-Cartan solvable: solution set = base + Z^2, dim Z^2 = {report.dim_z2}")
    print(f"equivalence classes: dim H^2 = {report.dim_h2}")
    return payload


def cmd_classify(sf: SpecFile, args) -> dict:
    aname, alg, wname, ext = _extension_setup(sf, args)
    result = classify(alg, ext)
    report = result.report
    payload = {
        "algebra": aname,
        "cocycle": wname,
        "obstruction_vanishes": report.obstruction_vanishes,
        "dim_z2": report.dim_z2,
        "dim_b2": report.dim_b2,
        "dim_h2": report.dim_h2,
        "representatives": [morphism_to_obj(d.mtilde) for d in result.representatives],
    }
    if report.coset_count is not None:
        payload["coset_count"] = report.coset_count
    obstructed = "" if report.obstruction_vanishes else "; obstruction class is NONZERO in H^3, no deformation exists"
    print(f"dim H^2 = {report.dim_h2}; {len(result.representatives)} representative(s) materialized{obstructed}")
    return payload


def cmd_series(sf: SpecFile, args) -> dict:
    aname, alg = _pick(sf.algebras, "algebra", sf.task, args.algebra)
    dname, d_coalg = _pick(sf.coalgebras, "coalgebra", sf.task, args.coalgebra)
    if alg.coalgebra.dim != 1:
        raise SpecFileError("reference", "series needs the base algebra over a one-dimensional coalgebra")
    n_max = _int_param(sf.task, "max_degree", args.max_degree, "maximum degree")
    strategy = _task_str(sf.task, "strategy", args.strategy, "first")
    user_cochains = None
    if strategy.startswith("file:"):
        user_cochains = {}
        for degree, mats in parse_cochain_file(strategy[5:], sf.field, alg.a_dim).items():
            if not 1 <= degree <= d_coalg.max_degree():
                raise SpecFileError("dimension", f"cochain file: degree {degree} is outside 1..{d_coalg.max_degree()}")
            if len(mats) != len(d_coalg.degree_indices(degree)):
                raise SpecFileError("dimension", f"cochain file: degree {degree} needs one matrix per layer element")
            user_cochains[degree] = Cochain(2, tuple(mats))
        strategy = "user"
    # the plain algebra is m at the group-like g = e / eps(e) of the one-dimensional coalgebra
    m0 = alg.m.evaluate({0: sf.field.inv(alg.coalgebra.counit[0])})
    result = series_deform(m0, d_coalg, n_max, strategy=strategy, user_cochains=user_cochains)
    branch = result.primary
    steps_payload = []
    for step in branch.steps:
        line = {
            "degree": step.degree,
            "obstruction_vanishes": step.report.obstruction_vanishes,
            "dim_z2": step.report.dim_z2,
            "dim_h2": step.report.dim_h2,
        }
        if step.chosen is not None:
            line["chosen"] = cochain_to_obj(step.chosen)
        steps_payload.append(line)
        status = "ok" if step.report.obstruction_vanishes else "OBSTRUCTED"
        print(f"degree {step.degree}: {status}, dim Z^2 = {step.report.dim_z2}, "
              f"dim H^2 = {step.report.dim_h2}")
    payload = {
        "algebra": aname,
        "coalgebra": dname,
        "max_degree": n_max,
        "strategy": strategy,
        "steps": steps_payload,
        "stopped_at": branch.stopped_at,
        "final_multiplication": morphism_to_obj(branch.final.m),
    }
    if branch.stopped_at is not None:
        _write_out(args.out, dict(_report_header(sf, "series"), **payload))
        raise MathFailure(f"obstruction class nonzero at degree {branch.stopped_at}")
    return payload


def cmd_unit_gauge(sf: SpecFile, args) -> dict:
    aname, alg = _pick(sf.algebras, "algebra", sf.task, args.algebra)
    base_name = _task_str(sf.task, "base_algebra", args.base_algebra)
    if base_name is None or base_name not in sf.algebras:
        raise SpecFileError("reference", "unit-gauge needs a base_algebra block with the unit")
    base = sf.algebras[base_name]
    if base.unit is None:
        raise SpecFileError("reference", f"base algebra {base_name!r} carries no unit")
    result = unit_gauge(alg.m, base.unit)
    print("unit normalized: u o lambda is a two-sided unit of the transported multiplication")
    return {
        "algebra": aname,
        "base_algebra": base_name,
        "gauge": morphism_to_obj(result.gauge),
        "transported_multiplication": morphism_to_obj(result.m_f),
        "unit_of_original": morphism_to_obj(result.u_tilde),
    }


def cmd_invert(sf: SpecFile, args) -> dict:
    mname, mor = _pick(sf.morphisms, "morphism", sf.task, args.morphism)
    try:
        inv = takeuchi_invert(mor)
    except NotInvertible as exc:
        raise MathFailure(str(exc)) from exc
    print(f"morphism {mname} inverted; both inverse identities verified exactly")
    return {"morphism": mname, "inverse": morphism_to_obj(inv)}


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1); argparse's own code 2 means "no" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpecFileError("syntax", message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and shared by every later `main` call."""
    parser = _Parser(
        prog="convdef",
        description="Exact deformation computations over coalgebra extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("specfile")
        p.add_argument("--out", help="write a machine-readable JSON report here")
        p.add_argument("--algebra", help="algebra block to use")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    p = add("cohomology", cmd_cohomology)
    p.add_argument("--degree", type=int)
    p.add_argument("--comodule")
    for name, fn in (("obstruct", cmd_obstruct), ("deform", cmd_deform), ("classify", cmd_classify)):
        p = add(name, fn)
        p.add_argument("--cocycle")
    p = add("series", cmd_series)
    p.add_argument("--max-degree", dest="max_degree", type=int)
    p.add_argument("--strategy", help="first | all | file:<cochain-path>")
    p.add_argument("--coalgebra")
    p = add("unit-gauge", cmd_unit_gauge)
    p.add_argument("--base-algebra", dest="base_algebra")
    p = add("invert", cmd_invert)
    p.add_argument("--morphism")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    summary = io.StringIO()  # a command's stdout, shown only once its report has rendered
    try:
        args = parser.parse_args(argv)
        strict = args.command != "validate"
        sf, failures = parse_path(args.specfile, strict=strict)
        with contextlib.redirect_stdout(summary):
            if args.command == "validate":
                payload = cmd_validate(sf, failures, args)
            else:
                payload = args.fn(sf, args)
        _write_out(args.out, dict(_report_header(sf, args.command), **payload))
    except SpecFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except MathFailure as exc:
        sys.stdout.write(summary.getvalue())
        print(f"no: {exc}", file=sys.stderr)
        return 2
    except ConvDefError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(summary.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
