import importlib.util
import json
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "ladder" / "run.py"


def _ladder():
    spec = importlib.util.spec_from_file_location("ladder_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_rung_records_its_answer_and_a_stopped_run_records_why(tmp_path):
    """The smallest rung runs in a fresh capped process and records HH^3 of k[x]/(x^4) (dim 3, Holm); a run past its
    timeout records that instead of an answer."""
    ladder, out = _ladder(), tmp_path / "bench.json"
    rung = ["--rung", "k[x]/(x^4) dense n=3 Q", "--repeat", "1"]
    assert ladder.main(["--out", str(out), *rung]) == 0
    result = json.loads(out.read_text())
    assert {"commit", "python", "machine", "src_sha256"} <= result.keys()
    (record,) = result["rungs"]
    assert record["dims"] == {"dim_z": 51, "dim_b": 48, "dim_h": 3} and record["d_shape"] == [1024, 256]
    assert record["runs"][0]["exit"] == 0 and record["runs"][0]["peak_rss_mib"] > 0
    assert ladder.main(["--out", str(out), *rung, "--timeout", "0.01"]) == 0
    (record,) = json.loads(out.read_text())["rungs"]
    assert record["runs"] == [{"stopped": "timeout after 0.01 s"}] and "dims" not in record
