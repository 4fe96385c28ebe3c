"""`tools/bench_record.py --compare` on synthetic records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
MACHINE = {"nproc": 2, "cpu": "x", "python": "3.11.7", "numpy": "2.4.6",
           "blas": "scipy-openblas 0.3.31", "blas_threads": 2, "llc": "32 MiB"}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(path, values, machine=MACHINE, failed=0, diff=None):
    """A record whose runs hold `values[workload][seed]` as every metric."""
    runs = [{"workload": w, "seed": seed,
             "result": {"correct": not failed, "attempted": 10, "failed": failed,
                        "metrics": {m: {"value": v, "unit": "s"} for m in
                                    ("setup_s", "run_s", "cpu_s", "peak_rss_mb")}}}
            for w, by_seed in values.items() for seed, v in by_seed.items()]
    path.write_text(json.dumps({"commit": "0" * 40, "diff": diff, "machine": machine,
                                "seconds": 25, "runs": runs}))
    return path


WORKLOADS = ("bli-align", "diachronic", "noise-curve")


def test_medians_quartiles_wins_and_verdicts(tmp_path, capsys):
    before = {w: {101: 10.0, 102: 11.0, 103: 12.0, 104: 13.0, 105: 14.0} for w in WORKLOADS}
    # better by 2.5 against an interquartile distance of 2, yet no gain is named
    after = {"bli-align": {101: 8.5, 102: 9.0, 103: 9.5, 104: 10.0, 105: 10.5},
             "diachronic": {101: 10.5, 102: 11.0, 103: 12.5, 104: 12.0, 105: 14.0},
             # seed 106 has no partner: it counts in the median, not in the wins
             "noise-curve": {101: 16.0, 102: 16.0, 103: 16.0, 104: 16.0, 106: 1.0}}
    tool = load_tool()
    assert tool.main(["--compare", str(record(tmp_path / "a.json", before)),
                      str(record(tmp_path / "b.json", after, diff="ab" * 32))]) == 0
    out = capsys.readouterr().out
    assert out.startswith("before 000000000000, after 000000000000 + diff abababababab, "
                          "25 s and 25 s per run\n")
    rows = {tuple(line.split()[:2]): line.split() for line in out.splitlines()[2:]}
    # inclusive quartiles of 10..14 are 11 and 13
    assert rows["bli-align", "run_s"][2:8] == ["12", "[11,", "13]", "9.5", "[9,", "10]"]
    assert rows["bli-align", "run_s"][8:] == ["5/5", "-20.83%", "25%", "within"]
    # an equal value is no win
    assert rows["diachronic", "run_s"][8:] == ["1/5", "+0.00%", "25%", "within"]
    assert rows["noise-curve", "run_s"][8:] == ["0/4", "+33.33%", "25%", "worse"]
    # the bound is read per metric: peak_rss_mb's is 0.1
    assert rows["noise-curve", "peak_rss_mb"][8:] == ["0/4", "+33.33%", "10%", "worse"]


def test_failed_invocations_are_reported(tmp_path, capsys):
    values = {w: {101: 1.0} for w in WORKLOADS}
    tool = load_tool()
    assert tool.main(["--compare", str(record(tmp_path / "a.json", values)),
                      str(record(tmp_path / "b.json", values, failed=3))]) == 0
    assert "bli-align    after: 3 of 10 invocations failed" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["nproc", "blas_threads", "numpy"])
def test_records_of_different_machines_are_refused(tmp_path, capsys, key):
    values = {w: {101: 1.0} for w in WORKLOADS}
    other = {**MACHINE, key: "other"}
    tool = load_tool()
    assert tool.main(["--compare", str(record(tmp_path / "a.json", values)),
                      str(record(tmp_path / "b.json", values, machine=other))]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("machines differ")


def test_paired_runs_alternate_and_write_both_records(tmp_path, monkeypatch, capsys):
    # each parent run sits next to the same change run, and the side that
    # runs first alternates from seed to seed
    tool = load_tool()
    calls = []

    def run(root, workload, seed, seconds):
        calls.append((root.name, workload, seed))
        value = 10.0 if root.name == "parent" else 9.0
        return MACHINE, {"correct": True, "attempted": 10, "failed": 0,
                         "metrics": {m: {"value": value, "unit": "s"}
                                     for m in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")}}

    def git(root, *args):
        return f"{root.name}-commit\n" if args[0] == "rev-parse" else ""
    monkeypatch.setattr(tool, "_run", run)
    monkeypatch.setattr(tool, "_git", git)
    parent = tmp_path / "parent"
    parent.mkdir()
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert tool.main(["--out", str(after), "--paired", str(parent), str(before)]) == 0
    assert len(calls) == 2 * len(tool.SEEDS) * len(WORKLOADS) and len(tool.SEEDS) >= 10
    for k, seed in enumerate(tool.SEEDS):
        first = "parent" if k % 2 == 0 else tool.ROOT.name
        for j, workload in enumerate(WORKLOADS):
            pair = calls[(k * len(WORKLOADS) + j) * 2:][:2]
            assert [c[1:] for c in pair] == [(workload, seed)] * 2
            assert pair[0][0] == first and {c[0] for c in pair} == {"parent", tool.ROOT.name}
    docs = [json.loads(p.read_text()) for p in (before, after)]
    assert [d["commit"] for d in docs] == ["parent-commit", f"{tool.ROOT.name}-commit"]
    assert all(d["diff"] is None and d["machine"] == MACHINE for d in docs)
    assert all(len(d["runs"]) == len(tool.SEEDS) * len(WORKLOADS) for d in docs)
    capsys.readouterr()
    assert tool.main(["--compare", str(before), str(after)]) == 0
    rows = {tuple(line.split()[:2]): line.split() for line in
            capsys.readouterr().out.splitlines()[2:]}
    assert rows["bli-align", "peak_rss_mb"][8] == f"{len(tool.SEEDS)}/{len(tool.SEEDS)}"


def test_paired_needs_out(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        load_tool().main(["--compare", "a", "b", "--paired", str(tmp_path), "p.json"])
    assert exc.value.code == 2 and "--paired needs --out" in capsys.readouterr().err
