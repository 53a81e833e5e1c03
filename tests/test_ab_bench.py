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


def fake_checkout(tmp_path, name, last_line, details=()):
    """A checkout whose bench/run.py prints one line and the JSON ``last_line``;
    with ``details`` its k-th run also writes the k-th of them (cyclically) as
    the run's detail file of workload w, seed 5."""
    bench = tmp_path / name / "bench"
    bench.mkdir(parents=True)
    script = f"print('workload')\nprint({json.dumps(last_line)!r})\n"
    if details:
        script += ("import json, os\nos.makedirs('.bench_out', exist_ok=True)\n"
                   "k = int(open('runs').read()) if os.path.exists('runs') else 0\n"
                   "open('runs', 'w').write(str(k + 1))\n"
                   f"details = json.loads({json.dumps(details)!r})\n"
                   "with open('.bench_out/w-seed5-trace0.json', 'w') as fh:\n"
                   "    json.dump(details[k % len(details)], fh)\n")
    (bench / "run.py").write_text(script)
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


def test_per_operation_medians_from_the_detail_files(tmp_path, capsys):
    # every pass of every run pooled per side; an operation one side lacks is
    # left out.  A pair is won per operation when the change run's median of
    # its passes is below the parent run's: c's pooled medians tie, and the
    # change wins the first pair and loses the second
    record = tmp_path / "bench.json"
    common = [[0, "a", 2.0], [0, "b", 1.0], [1, "a", 4.0], [1, "b", 1.0], [0, "only-parent", 1.0]]
    parent = fake_checkout(tmp_path, "parent", last_line(p50=2.0), [
        {"op_times": common + [[0, "c", 3.0]]}, {"op_times": common + [[0, "c", 1.0]]}])
    change = fake_checkout(tmp_path, "change", last_line(p50=1.0), [{"op_times": [
        [0, "a", 1.0], [0, "b", 1.0], [1, "a", 2.0], [1, "b", 1.5], [0, "c", 2.0]]}])
    assert ab_bench.main(["--parent", parent, "--change", change, "--workload", "w",
                          "--seed", "5", "--pairs", "2", "--json", str(record)]) == 0
    per_op = json.loads(record.read_text())["w.seed5"]["per_operation"]
    assert per_op == {
        "a": {"parent": 3.0, "change": 1.5, "relative_change": -0.5, "change_wins": 2,
              "pairs": 2},
        "b": {"parent": 1.0, "change": 1.25, "relative_change": 0.25, "change_wins": 0,
              "pairs": 2},
        "c": {"parent": 2.0, "change": 2.0, "relative_change": 0.0, "change_wins": 1,
              "pairs": 2}}
    out = capsys.readouterr().out
    assert "operation" in out and "-50.0%" in out
    assert [line.split()[-1] for line in out.splitlines()
            if line.split()[0] in ("a", "b", "c")] == ["2/2", "0/2", "1/2"]
