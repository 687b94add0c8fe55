"""Self-tests of the benchmark: run with `python3 -m pytest perfbench -q` from the repository root."""

from __future__ import annotations

import copy
import json

import pytest

import checks
import gen
import run
import tracer


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture()
def work():
    with run.WorkDir() as wd:
        yield wd.path


def _op(workload: str, name: str, seed: int = 1, pass_index: int = 0) -> gen.Op:
    return next(op for op in gen.ops_for(workload, seed, pass_index) if op.name == name)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed_and_differs_per_pass(workload):
    first = gen.digest_ops(gen.ops_for(workload, 7, 0))
    assert gen.digest_ops(gen.ops_for(workload, 7, 0)) == first
    assert gen.digest_ops(gen.ops_for(workload, 7, 1)) != first
    assert gen.digest_ops(gen.ops_for(workload, 8, 0)) != first


def test_every_op_with_an_answer_passes_its_check(cli, work):
    expected = checks.load_expected()
    for op in gen.ops_for("gauge", 3, 0) + [_op("deform", "series.file.t2.Q", 3)]:
        result = run.run_op(cli, op, work)
        problems = run.problems_of(op, result, expected)
        assert problems == [] or op.known_defect, (op.name, problems)


def test_corrupted_report_is_flagged(cli, work):
    expected = checks.load_expected()
    op = _op("gauge", "invert.t4.a2.Q")
    result = run.run_op(cli, op, work)
    assert run.problems_of(op, result, expected) == []
    broken = copy.deepcopy(result.report)
    matrix = broken["inverse"]["t"]
    matrix[0][0] = str(gen.QQ.parse(matrix[0][0]) + 1)
    assert run.problems_of(op, run.OpResult(op.name, 0.0, 0, None, broken, None), expected)


def test_corrupted_table_answer_is_flagged(cli, work):
    expected = checks.load_expected()
    op = _op("deform", "classify.x2t.F3")
    result = run.run_op(cli, op, work)
    assert run.problems_of(op, result, expected) == []
    broken = dict(result.report, dim_h2=result.report["dim_h2"] + 1)
    assert run.problems_of(op, run.OpResult(op.name, 0.0, 0, None, broken, None), expected)


def test_wrong_exit_code_is_flagged():
    op = _op("gauge", "invert.singular.t4.a2.Q")
    assert op.expect_exit == 2
    assert run.problems_of(op, run.OpResult(op.name, 0.0, 0, None, None, None), {})
    assert run.problems_of(op, run.OpResult(op.name, 0.0, None, "timeout", None, None), {}) == ["timeout"]


def test_op_times_are_rescaled_by_the_yardstick(cli, work, monkeypatch):
    # a machine at half the yardstick's reference speed: every op counts half its wall time
    monkeypatch.setattr(run, "yardstick", lambda: 2 * run.YARDSTICK_S)
    results = run.Run(cli, "gauge", 1, work).run_pass(gen.gauge_ops(1, 0)[:2])
    assert [r.scaled for r in results] == pytest.approx([r.seconds / 2 for r in results])


def test_hochschild_closed_forms():
    # Q[x]/(x^2) at degree 2 (fixtures/dual_numbers.json): dim H^2 = 1
    assert checks.complex_dims("trunc2", 2, 0, 2) == (4, 3, 1)
    # char 2 divides 2: every HH^i of k[x]/(x^2) has dimension 2
    assert checks.complex_dims("trunc2", 2, 2, 2)[2] == 2
    # Morita: HH^2(M_2) = 0, B^2 = 16 - 3
    assert checks.complex_dims("mat2", 4, 0, 2) == (13, 13, 0)


def test_span_self_times_sum_to_at_most_op_wall(cli, work):
    spans = tracer.Tracer()
    op = _op("deform", "classify.x2t.Q")
    spans.install()
    try:
        result = run.run_op(cli, op, work)
    finally:
        spans.restore()
    totals = spans.reset()
    self_times = [v for k, v in totals.items() if k.endswith(".self_s")]
    assert result.code == 0
    assert all(t >= 0 for t in self_times)
    assert 0 < sum(self_times) <= result.seconds
    assert totals["deformation.mc_solve.calls"] == 1
    assert totals["specfile.parse.calls"] == 1


def test_tracer_restores_every_patched_name():
    import convdef
    import convdef.linalg
    from convdef.linalg import Matrix

    originals = (convdef.rref, convdef.linalg.rref, Matrix.__matmul__)
    spans = tracer.Tracer()
    spans.install()
    assert convdef.rref is convdef.linalg.rref is not originals[0]
    spans.restore()
    assert (convdef.rref, convdef.linalg.rref, Matrix.__matmul__) == originals


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + [("gone", "convdef.cohomology:ComplexSpec.gone", None)])
    spans = tracer.Tracer()
    spans.install()
    spans.restore()
    assert spans.absent == ["convdef.cohomology:ComplexSpec.gone"]


def test_result_line_has_the_contract_keys(capsys, monkeypatch):
    monkeypatch.setattr(gen, "WORKLOADS", dict(gen.WORKLOADS, gauge=lambda seed, p: gen.gauge_ops(seed, p)[:2]))
    assert run.main(["--workload", "gauge", "--seed", "1", "--seconds", "0.1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"pass_s", "op_s.p50", "setup_s", "peak_rss_mb", "fail_ratio"}
