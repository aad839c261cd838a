import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def _lines(name: str) -> list[str]:
    return bench_trajectory.lines(ROOT / name)


def test_a_met_claim():
    got = _lines("BENCH_pr38.json")
    assert got[0] == "BENCH_pr38.json: claim sweep6 peak_rss_mb gain +27.08% met"
    assert [line.split()[0] for line in got[1:]] == ["canon6", "cli12", "sweep6"]
    sweep = got[3]
    assert "peak_rss_mb 38.35 -> 27.96" in sweep
    assert "item_p50_ms 0.1165 -> 0.1124" in sweep


def test_a_claim_not_met():
    got = _lines("BENCH_pr40.json")
    assert got[0] == "BENCH_pr40.json: claim sweep6 wall_s gain +5.66% not met"
    assert "wall_s 0.9371 -> 0.884" in got[3]


def test_rows_follow_the_file():
    data = json.loads((ROOT / "BENCH_pr40.json").read_text())
    rows = bench_trajectory.medians(data)
    for w, entry in data["workloads"].items():
        assert set(rows[w]) == set(entry["metrics"])
        for m, v in entry["metrics"].items():
            assert rows[w][m] == (v["parent"]["median"], v["change"]["median"])
    assert bench_trajectory.claim(data) == {
        "workload": "sweep6", "metric": "wall_s", "gain": 0.0566, "met": False}


def test_no_claim_and_a_gain_read_off_the_medians():
    assert _lines("BENCH_pr39.json")[0] == "BENCH_pr39.json: no claim"
    # the oldest files record no gain
    data = json.loads((ROOT / "BENCH_pr6.json").read_text())
    assert "gain" not in data["claim"]
    assert bench_trajectory.claim(data)["gain"] == 0.6337


def test_every_committed_file_in_pr_order():
    names = [p.name for p in bench_trajectory.bench_files()]
    assert names[:3] == ["BENCH_pr6.json", "BENCH_pr7.json", "BENCH_pr8.json"]
    assert names.index("BENCH_pr36.json") + 1 == names.index("BENCH_pr36b.json")
    assert set(names) == {p.name for p in ROOT.glob("BENCH_*.json")}
    for name in names:
        data = json.loads((ROOT / name).read_text())
        assert len(_lines(name)) == 1 + len(data["workloads"]), name
