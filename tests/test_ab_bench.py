"""The A/B comparison tool: its summary and its refusal of bad runs."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "ab_bench.py")
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def fake_checkout(tmp_path, name, last_line):
    """A checkout whose bench/run.py prints one line and the JSON ``last_line``."""
    bench = tmp_path / name / "bench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(f"print('workload')\nprint({json.dumps(last_line)!r})\n")
    return str(tmp_path / name)


def last_line(correct=True, failed=0, p50=1.0):
    """A run's last line: ``op_s.p50`` at ``p50``, every other metric at 1."""
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": p50 if name == "op_s.p50" else 1.0}
                        for name, _ in ab_bench.end_to_end_metrics()}}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    runs = {"parent": [{"op_s.p50": p, "ops_per_s": 1.0 / p} for p in (2.0, 2.0, 3.0, 4.0)],
            "change": [{"op_s.p50": c, "ops_per_s": 1.0 / c} for c in (1.0, 2.0, 3.5, 1.0)]}
    summary = ab_bench.summarize(runs, [("op_s.p50", "lower"), ("ops_per_s", "higher")])
    assert summary["op_s.p50"]["change_wins"] == 2
    assert summary["ops_per_s"]["change_wins"] == 2
    assert summary["op_s.p50"]["parent"] == {"median": 2.5, "q1": 2.0, "q3": 3.25}
    assert summary["op_s.p50"]["relative_change"] == pytest.approx(1.5 / 2.5 - 1.0)


@pytest.mark.parametrize("line", [last_line(correct=False), last_line(failed=1)],
                         ids=["not-correct", "failed-operation"])
def test_refuses_a_bad_run(tmp_path, capsys, line):
    good = fake_checkout(tmp_path, "good", last_line())
    bad = fake_checkout(tmp_path, "bad", line)
    assert ab_bench.main(["--parent", good, "--change", bad, "--workload", "w",
                          "--pairs", "1", "--seconds", "1"]) == 1
    assert "not correct or with failed operations" in capsys.readouterr().err


def test_record_keeps_other_keys(tmp_path):
    record = tmp_path / "bench.json"
    record.write_text(json.dumps({"other.seed1": {"pairs": 3}}))
    parent = fake_checkout(tmp_path, "parent", last_line(p50=2.0))
    change = fake_checkout(tmp_path, "change", last_line(p50=1.0))
    assert ab_bench.main(["--parent", parent, "--change", change, "--workload", "w",
                          "--seed", "5", "--pairs", "2", "--json", str(record)]) == 0
    data = json.loads(record.read_text())
    assert sorted(data) == ["other.seed1", "w.seed5"]
    assert data["w.seed5"]["summary"]["op_s.p50"]["change_wins"] == 2
