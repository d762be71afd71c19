import importlib.util
import json
import subprocess
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(path):
    """Import a script as a module; its __main__ guard keeps main() from running."""
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path):
    assert callable(_load(path).main)


def test_make_demos_reproduces_committed_demos(tmp_path, monkeypatch, capsys):
    module = _load(ROOT / "scripts" / "make_demos.py")
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    committed = sorted((ROOT / "demos").glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in committed]
    for path in committed:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_train_benchmark_runs(monkeypatch, capsys):
    module = _load(ROOT / "scripts" / "train_benchmark.py")
    monkeypatch.setattr("sys.argv", ["train_benchmark.py", "--iterations", "3"])
    module.main()
    assert "shot  terminal" in capsys.readouterr().out



def test_estimator_study_runs(monkeypatch, capsys):
    module = _load(ROOT / "scripts" / "estimator_study.py")
    monkeypatch.setattr("sys.argv", ["estimator_study.py"])
    module.main()
    out = capsys.readouterr().out
    rows = [line.split()[0] for line in out.splitlines()[2:]]
    assert rows == ["0.200", "0.100", "0.050", "0.025"]
    assert "cost model" not in out


def _pairs(before, after, name="work_per_s"):
    return [{"before": {"metrics": {name: b}}, "after": {"metrics": {name: a}}}
            for b, a in zip(before, after)]


def test_bench_pairs_verdicts():
    module = _load(ROOT / "scripts" / "bench_pairs.py")
    higher = {"work_per_s": {"name": "work_per_s", "better": "higher", "bound": 0.25}}
    lower = {"op_s.p50": {"name": "op_s.p50", "better": "lower", "bound": 0.25}}
    before = [20.0, 20.5, 19.5, 21.0, 19.0, 20.2, 19.8, 20.1, 19.9, 20.4]

    clear = module._summary(_pairs(before, [b * 1.5 for b in before]), higher)["work_per_s"]
    assert clear["after_wins"] == 10 and clear["claim_met"] and clear["within_bound"]

    # 8 of 10 wins is short of 9 of 10, however large the gain
    after = [b * 1.5 for b in before[:8]] + [b * 0.9 for b in before[8:]]
    eight = module._summary(_pairs(before, after), higher)["work_per_s"]
    assert eight["after_wins"] == 8 and not eight["claim_met"]

    # every pair won, but by less than the before side's interquartile range
    small = module._summary(_pairs(before, [b + 0.01 for b in before]), higher)["work_per_s"]
    assert small["after_wins"] == 10 and not small["claim_met"] and small["within_bound"]

    # lower is better: a 20% slower median is inside the 0.25 bound, 30% is not
    times = [1.0 + 0.01 * k for k in range(10)]
    slower = module._summary(_pairs(times, [t * 1.2 for t in times], "op_s.p50"), lower)
    assert slower["op_s.p50"]["within_bound"] and not slower["op_s.p50"]["claim_met"]
    slowest = module._summary(_pairs(times, [t * 1.3 for t in times], "op_s.p50"), lower)
    assert not slowest["op_s.p50"]["within_bound"]
    faster = module._summary(_pairs(times, [t * 0.5 for t in times], "op_s.p50"), lower)
    assert faster["op_s.p50"]["claim_met"]
    assert faster["op_s.p50"]["ratio_of_medians"] == pytest.approx(0.5)


@pytest.mark.parametrize("after_threads, code", [(2, 0), (1, 1)])
def test_bench_pairs_stamps_and_checks_openblas_threads(tmp_path, monkeypatch, capsys,
                                                       after_threads, code):
    module = _load(ROOT / "scripts" / "bench_pairs.py")
    sides = {tmp_path / "before": 2, tmp_path / "after": after_threads}
    metrics = {m: 1.0 for m in ("setup_s", "op_s.p50", "work_per_s", "peak_rss_mb")}

    def fake_run(checkout, workload, seed, seconds):
        return {"exit_code": 0, "metrics": metrics, "attempted": 1, "failed": 0,
                "fingerprint": "f", "environment": {"blas_threads": sides[checkout]}}

    monkeypatch.setattr(module, "_run", fake_run)
    out = tmp_path / "BENCH.json"
    assert module.main(["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
                        "--out", str(out), "--workload", "cli-demos", "--seeds", "1-2"]) == code
    report = json.loads(out.read_text())
    assert report["openblas_threads"] == sorted({2, after_threads})
    err = capsys.readouterr().err
    assert ("OpenBLAS thread counts differ" in err) == bool(code)
    if code:
        assert "cli-demos seed 1: before 2, after 1" in err


@pytest.mark.parametrize("seeds", ["5-3", "x", "1-y", ""])
def test_bench_pairs_rejects_an_empty_or_non_numeric_seed_range(tmp_path, monkeypatch, capsys,
                                                                seeds):
    module = _load(ROOT / "scripts" / "bench_pairs.py")
    monkeypatch.setattr(module, "_run", lambda *a: pytest.fail("a run started"))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--before", str(tmp_path), "--after", str(tmp_path), "--out", str(out),
                     "--workload", "cli-demos", "--seeds", seeds])
    assert exit_info.value.code == 2
    assert "--seeds takes nonempty integer ranges" in capsys.readouterr().err
    assert not out.exists()


def test_output_digests_repeat_and_leave_out_timings_and_paths():
    module = _load(ROOT / "scripts" / "output_digests.py")
    by_label = {" ".join(argv): argv for argv in module.commands(ROOT / "demos")}
    demo = ROOT / "demos"
    grad = by_label[f"grad --spec {demo / 'grad_qc.json'} --seed 7"]
    # train writes wall_ms and its trajectory path, estimate its wall_s
    train = by_label[f"train --spec {demo / 'train_qubit.json'} --seed 7"]
    estimate = by_label[f"estimate --spec {demo / 'estimate.json'} --seed 7"]
    for argv in (grad, train, estimate):
        assert module.digest(argv) == module.digest(argv)
    assert module.digest(estimate) != module.digest(estimate[:-1] + ["8"])


def test_seeded_outputs_match_the_committed_digests():
    # tests/output_digests.json holds the digests of the 22 seeded commands
    # and the environment that made them; scripts/output_digests.py --write
    # regenerates it when a change moves an output on purpose
    module = _load(ROOT / "scripts" / "output_digests.py")
    committed = json.loads((ROOT / module.DIGEST_FILE).read_text())
    got = module.digests()
    moved = sorted(name for name in got.keys() | committed["digests"].keys()
                   if got.get(name) != committed["digests"].get(name))
    env, stamp = module.environment(), committed["environment"]
    if env != stamp and moved:
        # a machine change and a code change look alike here: say so, never pass
        pytest.skip(f"digests of {moved} differ, but they were made with {stamp}, not {env}; "
                    "compare with output_digests.py on a known-good checkout here")
    assert not moved, f"seeded outputs moved: {moved}"
    if env != stamp:
        warnings.warn(f"all digests match, though they were made with {stamp}, not {env}")


def _fake_perfbench(module, monkeypatch, walls, fail=()):
    """Stand in for perfbench/run.py: each call prints a result line and writes
    the seed's results file, except for the (checkout name, seed) in ``fail``,
    which print only a traceback and exit 1.  ``walls[name]`` is the checkout's
    (nominal work_per_s, raw work_per_s, reference median), optionally followed
    by its import seconds and its set-up seconds."""
    calls = []

    def run(cmd, cwd, capture_output, text):
        checkout, seed = Path(cwd), int(cmd[cmd.index("--seed") + 1])
        workload = cmd[cmd.index("--workload") + 1]
        results = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
        calls.append((checkout.name, seed, results.exists()))
        if (checkout.name, seed) in fail:
            return subprocess.CompletedProcess(cmd, 1, "", "Traceback (most recent call last):\n"
                                               "  File run.py\nMemoryError\n")
        nominal, raw, ref, *setup = walls[checkout.name]
        metrics = {"setup_s": 0.1, "op_s.p50": 1.0 / nominal, "work_per_s": nominal,
                   "peak_rss_mb": 50.0}
        wall = dict(metrics, **{"op_s.p50": 1.0 / raw, "work_per_s": raw})
        results.parent.mkdir(parents=True, exist_ok=True)
        split = {}
        if setup:
            import_s, setup_s = setup
            split = {"import_s": import_s + 1e-3 * seed,
                     "setups_s": [setup_s, 9.0 * setup_s, setup_s, 0.0, setup_s]}
        results.write_text(json.dumps({
            "wall": wall, "reference_s": [ref, ref, 9.0 * ref], "fingerprint": "f",
            "environment": {"blas_threads": 1}, **split}))
        line = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
        return subprocess.CompletedProcess(cmd, 0, "summary\n" + json.dumps(line) + "\n", "")

    monkeypatch.setattr(module.subprocess, "run", run)
    return calls


def _bench_main(module, tmp_path, seeds="1-4"):
    out = tmp_path / "BENCH.json"
    code = module.main(["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
                        "--out", str(out), "--workload", "cli-demos", "--seeds", seeds])
    return code, json.loads(out.read_text())["workloads"]["cli-demos"]


def test_bench_pairs_keeps_raw_metrics_and_flags_a_disagreeing_scale(tmp_path, monkeypatch):
    module = _load(ROOT / "scripts" / "bench_pairs.py")
    # nominally faster after, yet slower in wall time: the reference kernel ran faster
    _fake_perfbench(module, monkeypatch, {"before": (39.6, 4.03, 1.27e-3),
                                          "after": (37.7, 3.98, 1.12e-3)})
    code, report = _bench_main(module, tmp_path)
    assert code == 0 and report["complete_pairs"] == 4 and report["failed_runs"] == {
        "before": 0, "after": 0}
    run = report["pairs"][0]["after"]
    assert run["wall"]["work_per_s"] == 3.98 and run["reference_s_median"] == 1.12e-3
    work = report["summary"]["work_per_s"]
    assert work["ratio_of_medians"] == pytest.approx(37.7 / 39.6)
    assert work["raw_ratio_of_medians"] == pytest.approx(3.98 / 4.03)
    assert work["raw"]["before"]["median"] == 4.03 and not work["scaling_disagrees"]
    setup = report["summary"]["setup_s"]
    assert setup["raw_ratio_of_medians"] == 1.0 and not setup["scaling_disagrees"]

    _fake_perfbench(module, monkeypatch, {"before": (39.6, 4.03, 1.27e-3),
                                          "after": (37.7, 4.10, 1.12e-3)})
    code, report = _bench_main(module, tmp_path)
    for name in ("work_per_s", "op_s.p50"):
        assert report["summary"][name]["scaling_disagrees"], name


def test_bench_pairs_splits_setup_into_import_and_set_up(tmp_path, monkeypatch):
    module = _load(ROOT / "scripts" / "bench_pairs.py")
    # the import got faster and the workload's own set-up did not move
    _fake_perfbench(module, monkeypatch, {"before": (30.0, 3.0, 1e-3, 0.190, 0.040),
                                          "after": (30.0, 3.0, 1e-3, 0.160, 0.040)})
    code, report = _bench_main(module, tmp_path)
    assert code == 0
    run = report["pairs"][0]["before"]
    assert run["import_s"] == pytest.approx(0.191) and run["setup_median_s"] == 0.040
    parts = report["setup_parts"]
    imports = parts["import_s"]
    assert imports["before"]["median"] == pytest.approx(0.1925)
    assert imports["after"]["median"] == pytest.approx(0.1625)
    assert imports["ratio_of_medians"] == pytest.approx(0.1625 / 0.1925)
    assert (imports["after_wins"], imports["pairs"]) == (4, 4)
    own = parts["setup_median_s"]
    assert own["ratio_of_medians"] == 1.0 and own["after_wins"] == 0

    # a run that recorded no split leaves the workload without one
    _fake_perfbench(module, monkeypatch, {"before": (30.0, 3.0, 1e-3),
                                          "after": (30.0, 3.0, 1e-3, 0.160, 0.040)})
    code, report = _bench_main(module, tmp_path)
    assert code == 0 and report["setup_parts"] is None
    assert report["pairs"][0]["before"]["import_s"] is None


def test_bench_pairs_records_a_run_without_result_and_carries_on(tmp_path, monkeypatch, capsys):
    module = _load(ROOT / "scripts" / "bench_pairs.py")
    walls = {"before": (30.0, 3.0, 1e-3), "after": (33.0, 3.3, 1e-3)}
    # a stale results file of the failing seed must not be read as its result
    stale = tmp_path / "after" / ".perfbench" / "results" / "cli-demos-seed2-trace0.json"
    stale.parent.mkdir(parents=True)
    stale.write_text(json.dumps({"wall": {}, "reference_s": [1.0], "fingerprint": "stale"}))
    calls = _fake_perfbench(module, monkeypatch, walls, fail={("after", 2)})
    code, report = _bench_main(module, tmp_path)
    assert code == 1
    assert len(calls) == 8 and not any(existed for _, _, existed in calls)
    failed = report["pairs"][1]["after"]
    assert failed["run_failed"] and failed["exit_code"] == 1
    assert failed["stderr_tail"][-1] == "MemoryError" and "fingerprint" not in failed
    assert report["failed_runs"] == {"before": 0, "after": 1}
    assert report["complete_pairs"] == 3 and report["summary"]["work_per_s"]["pairs"] == 3
    assert report["fingerprints_equal"] == 3
    err = capsys.readouterr().err
    assert "cli-demos seed 2 after: FAILED, exit 1" in err and "MemoryError" in err
    assert "runs without a result: cli-demos seed 2 after (exit 1)" in err
