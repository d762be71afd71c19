import importlib.util
import json
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
