"""tools/bench_pairs.py: seed lists, pair summaries, and refused or failed runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds_takes_a_range_or_a_list():
    assert bench_pairs.parse_seeds("6101-6104") == [6101, 6102, 6103, 6104]
    assert bench_pairs.parse_seeds("6101,6103,6107") == [6101, 6103, 6107]
    assert bench_pairs.parse_seeds("9") == [9]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_summarise_counts_wins_and_signs_the_gap(better):
    # pairs: change lower, change lower, a tie, change higher, change lower
    runs = {"parent": [2.0, 3.0, 4.0, 5.0, 6.0], "change": [1.0, 2.0, 4.0, 6.0, 3.0]}
    out = bench_pairs.summarise(runs, better)
    lower_wins, higher_wins = 3, 1
    if better == "lower":
        assert (out["change_wins"], out["parent_wins"]) == (lower_wins, higher_wins)
    else:
        assert (out["change_wins"], out["parent_wins"]) == (higher_wins, lower_wins)
    assert out["parent"]["median"] == 4.0 and out["change"]["median"] == 3.0
    assert (out["parent"]["q1"], out["parent"]["q3"]) == (3.0, 5.0)
    # the change's median is lower by 1.0, over a parent IQR of 2.0
    gain = 0.5 if better == "lower" else -0.5
    assert out["median_gap_over_parent_iqr"] == gain
    assert out["relative_change"] == pytest.approx(-0.25)


def test_an_incorrect_run_stops_the_script_and_writes_no_record(tmp_path, monkeypatch):
    contract = {"end_to_end": [{"name": "primary_s", "better": "lower"}]}

    def fake_extract(rev, into):
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps(contract))
        return {"rev": rev, "src_tree": rev}

    def fake_run_side(checkout, workload, seed):
        correct = not (seed == 12 and checkout.name == "change")
        return {"correct": correct, "attempted": 1, "failed": 0,
                "metrics": {"primary_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "extract", fake_extract)
    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "a", "--change", "b", "--workload", "deterministic",
                          "--seeds", "11-13", "--label", "x", "--change-note", "x",
                          "--out", str(out)])
    assert "deterministic seed 12 change" in str(exc.value.code)
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["9", "6110-6101"])
def test_fewer_than_two_seeds_are_refused_before_any_run(tmp_path, monkeypatch, seeds):
    calls = []
    monkeypatch.setattr(bench_pairs, "extract", lambda *a: calls.append(a))
    monkeypatch.setattr(bench_pairs, "run_side", lambda *a: calls.append(a))
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "a", "--change", "b", "--workload", "deterministic",
                          "--seeds", seeds, "--label", "x", "--change-note", "x",
                          "--out", str(out)])
    assert exc.value.code == 2
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("returncode,stdout", [(1, ""), (0, "done, no verdict\n")])
def test_a_crashed_or_silent_run_is_named_and_writes_no_record(tmp_path, monkeypatch,
                                                               returncode, stdout):
    contract = {"end_to_end": [{"name": "primary_s", "better": "lower"}]}

    def fake_extract(rev, into):
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps(contract))
        return {"rev": rev, "src_tree": rev}

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout,
                                           stderr="Traceback\nValueError: boom\n")

    monkeypatch.setattr(bench_pairs, "extract", fake_extract)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "a", "--change", "b", "--workload", "deterministic",
                          "--seeds", "11-12", "--label", "x", "--change-note", "x",
                          "--out", str(out)])
    message = str(exc.value.code)
    assert message.startswith(f"deterministic seed 11 parent: exit code {returncode}")
    assert message.endswith("ValueError: boom")
    assert not out.exists()
