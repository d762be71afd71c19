import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qbmgrad.cli import build_parser, main
from qbmgrad.errors import SpecError
from qbmgrad.estimator import EstimatorConfig
from qbmgrad.gradients import (
    Target,
    classical_distribution,
    classical_gradient,
    classical_objective,
    cq_objective,
    gradient,
    gradient_cq,
    gradient_qc,
    psd_power,
    relative_entropy,
    tsallis,
)
from qbmgrad.linalg import eigh, expectation
from qbmgrad.models import cq_decompose, qc_decompose, thermalize
from qbmgrad.runspec import load_runspec, matrix_to_json
from qbmgrad.training import ClassicalProblem, QuantumProblem, TrainConfig

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run(args):
    return main([str(a) for a in args])


def test_grad_single_qubit_demo(tmp_path):
    code = run(["grad", "--spec", DEMOS / "grad_qubit.json", "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert abs(rep["values"][0] - 1.0) < 1e-10
    assert max(rep["fd_residuals"]) < 1e-6


def test_grad_fixed_point_demo(tmp_path):
    run(["grad", "--spec", DEMOS / "grad_fixed_point.json", "--out", tmp_path])
    rep = json.loads((tmp_path / "report.json").read_text())
    assert max(abs(v) for v in rep["values"]) < 1e-9


def test_grad_tsallis_flag(tmp_path):
    code = run(["grad", "--spec", DEMOS / "grad_tsallis.json", "--objective", "tsallis",
                "--q", "1.5", "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["objective"] == {"kind": "tsallis", "q": 1.5}
    assert "q_overlap" in rep
    assert max(rep["fd_residuals"]) < 1e-6


def test_grad_requires_q_with_tsallis(tmp_path):
    assert run(["grad", "--spec", DEMOS / "grad_tsallis.json", "--objective", "tsallis",
                "--out", tmp_path]) == 2


def _q_overlap(rho, sigma_es, q):
    """Tr[rho^q sigma^{1-q}] for a pre-decomposed positive sigma."""
    return expectation(sigma_es.power(1.0 - q), psd_power(rho, q))


def _direct_gradient(spec, obj):
    """(report, objective value, q overlap or None) from the library call for the kind."""
    m, rho, probs = spec.model, spec.target_state, spec.target_probs
    tsal = obj.kind == "tsallis"
    if m.kind in ("generic", "restricted"):
        model = thermalize(m.hamiltonian)
        return (gradient(model, rho, obj), relative_entropy(rho, model.sigma_v, obj),
                _q_overlap(rho, model.sigma_v_eig, obj.q) if tsal else None)
    if m.kind == "qc":
        qc = qc_decompose(m.hamiltonian, m.basis)
        return (gradient_qc(qc, rho, obj), relative_entropy(rho, qc.sigma_v, obj),
                _q_overlap(rho, eigh(qc.sigma_v), obj.q) if tsal else None)
    if m.kind == "cq":
        cq = cq_decompose(m.hamiltonian, m.basis)
        return gradient_cq(cq, probs, obj), cq_objective(cq, probs, obj), None
    return (classical_gradient(m.tables, m.theta, probs),
            classical_objective(m.tables, m.theta, probs), None)


def test_all_model_kinds_grad(tmp_path):
    paths = sorted(DEMOS.glob("grad_*.json"))
    assert len(paths) == 7
    for path in paths:
        spec = load_runspec(path)
        runs = [(spec.objective, [])]
        if spec.model.kind != "classical":  # classical tables are umegaki only
            runs.append((tsallis(1.5), ["--objective", "tsallis", "--q", "1.5"]))
        for obj, flags in runs:
            out = tmp_path / f"{path.stem}-{obj.kind}"
            assert run(["grad", "--spec", path, "--out", out, *flags]) == 0
            rep = json.loads((out / "report.json").read_text())
            ref, value, overlap = _direct_gradient(spec, obj)
            assert rep["values"] == ref.values.tolist()
            assert rep["first_terms"] == ref.first_terms.tolist()
            assert rep["second_terms"] == ref.second_terms.tolist()
            assert rep["objective_value"] == value
            quantum_visible = spec.model.kind in ("generic", "restricted", "qc")
            assert ("q_overlap" in rep) == (obj.kind == "tsallis" and quantum_visible)
            assert rep.get("q_overlap") == overlap
            assert max(rep["fd_residuals"]) < 1e-6


def test_train_writes_csv(tmp_path):
    code = run(["train", "--spec", DEMOS / "train_qubit.json", "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["final_objective"] < 1e-8
    assert rep["monotone"] is True
    with (tmp_path / "trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "objective", "grad_norm", "theta_0", "wall_ms"]
    assert abs(float(rows[-1][3]) - 0.5 * np.log(0.2 / 0.8)) < 1e-4


@pytest.mark.parametrize("argv, reason, early", [
    (["--spec", DEMOS / "grad_restricted.json"], "tolerance", True),
    (["--spec", DEMOS / "grad_fixed_point.json", "--iterations", "1"], "tolerance", False),
    (["--spec", DEMOS / "train_qubit.json", "--mode", "shot", "--shots", "256",
      "--iterations", "4"], "iterations", False),
    (["--spec", DEMOS / "train_qubit.json"], "rejected", True),
], ids=["exact-stops-early", "converges-on-its-last-iteration", "shot-runs-its-budget",
        "exact-uphill-step-rejected"])
def test_train_reports_where_it_stopped(tmp_path, capsys, monkeypatch, argv, reason, early):
    if reason == "rejected":  # an ascent direction: every halving of the first step fails
        raw = QuantumProblem.gradient_vector
        monkeypatch.setattr(QuantumProblem, "gradient_vector",
                            lambda self, theta, it: -raw(self, theta, it))
    assert run(["train", *argv, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    with (tmp_path / "trajectory.csv").open() as fh:
        last = int(list(csv.reader(fh))[-1][0])
    assert rep["iterations_run"] == last
    assert rep["stop_reason"] == reason
    assert (last < rep["iterations"]) if early else (last == rep["iterations"])
    assert (f"after {last} of {rep['iterations']} iterations (stop reason: {reason})"
            in capsys.readouterr().out)


@pytest.mark.parametrize("name", ["train_qubit", "grad_tsallis", "grad_restricted",
                                  "grad_classical"])
def test_rounding_in_the_gradient_does_not_move_the_stop(tmp_path, monkeypatch, name):
    def iterations_run(scale):
        for cls in (QuantumProblem, ClassicalProblem):
            monkeypatch.setattr(cls, "gradient_vector",
                                lambda self, theta, it, raw=raw[cls]: scale * raw(self, theta, it))
        out = tmp_path / repr(scale)
        assert run(["train", "--spec", DEMOS / f"{name}.json", "--seed", "7", "--out", out]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["stop_reason"] == "tolerance"
        return rep["iterations_run"]

    raw = {cls: cls.gradient_vector for cls in (QuantumProblem, ClassicalProblem)}
    want = iterations_run(1.0)
    assert iterations_run(1.0 + 1e-15) == want
    assert iterations_run(1.0 - 1e-15) == want


def test_train_csv_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run(["train", "--spec", DEMOS / "grad_cq.json", "--out", out,
             "--iterations", "40"])
        with (out / "trajectory.csv").open() as fh:
            rows = list(csv.reader(fh))
        outs.append([r[:-1] for r in rows])  # drop wall_ms
    assert outs[0] == outs[1]


def test_classical_shot_training_honours_seed_and_shots(tmp_path):
    def trajectory(*flags):
        assert run(["train", "--spec", DEMOS / "grad_classical.json", "--mode", "shot",
                    "--iterations", "5", "--out", tmp_path, *flags]) == 0
        with (tmp_path / "trajectory.csv").open() as fh:
            return [r[:-1] for r in csv.reader(fh)]  # drop wall_ms

    seed5 = trajectory("--seed", "5")
    assert seed5 != trajectory("--seed", "7")
    assert seed5 == trajectory("--seed", "5")
    assert seed5 != trajectory("--seed", "5", "--shots", "2000")


def test_estimate_demo(tmp_path):
    code = run(["estimate", "--spec", DEMOS / "estimate.json", "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["abs_error"] < rep["epsilon"]
    assert rep["shots"] == rep["auto_shots"]
    assert {"kappa", "g_norm", "mean", "stderr", "exact"} <= rep.keys()


def test_estimate_fixed_shots(tmp_path):
    run(["estimate", "--spec", DEMOS / "estimate.json", "--shots", "5000",
         "--out", tmp_path])
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["shots"] == 5000


def test_seed_env_override(tmp_path, monkeypatch):
    outs = []
    for sub, env in (("a", "123"), ("b", "123"), ("c", "456")):
        monkeypatch.setenv("QBMGRAD_SEED", env)
        out = tmp_path / sub
        run(["estimate", "--spec", DEMOS / "estimate.json", "--shots", "4000",
             "--out", out])
        outs.append(json.loads((out / "report.json").read_text())["mean"])
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    def mean(sub, *flags):
        run(["estimate", "--spec", DEMOS / "estimate.json", "--shots", "4000",
             "--out", tmp_path / sub, *flags])
        return json.loads((tmp_path / sub / "report.json").read_text())["mean"]

    flag_only = mean("flag", "--seed", "5")
    monkeypatch.setenv("QBMGRAD_SEED", "123")
    assert mean("both", "--seed", "5") == flag_only
    assert mean("env") != flag_only  # the environment still beats the spec seed


def test_verify_suite_runs(tmp_path):
    code = run(["verify", "--suite", "densities", "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["n_failed"] == 0
    assert all(c["residual"] < c["tol"] for c in rep["checks"])


def test_verify_all_reports_enough_checks(tmp_path):
    code = run(["verify", "--suite", "all", "--out", tmp_path])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["n_checks"] >= 30
    assert rep["n_failed"] == 0


def test_verify_unknown_suite(tmp_path):
    assert run(["verify", "--suite", "nonsense", "--out", tmp_path]) == 2


def test_missing_spec_is_input_error(tmp_path):
    assert run(["grad", "--spec", tmp_path / "nope.json", "--out", tmp_path]) == 2
    assert run(["grad", "--out", tmp_path]) == 2


def test_schema_violation_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"kind": "generic"}, "target": {}}))
    assert run(["grad", "--spec", bad, "--out", tmp_path]) == 2


def test_numerical_guard_is_exit_three(tmp_path):
    z = matrix_to_json(np.diag([1.0, -1.0]).astype(complex))
    spec = {
        "model": {"kind": "generic", "dims": {"visible": 2, "hidden": 1},
                  "terms": [z], "theta": [36.0]},
        "target": {"state": matrix_to_json(np.eye(2, dtype=complex) / 2)},
    }
    p = tmp_path / "guard.json"
    p.write_text(json.dumps(spec))
    assert run(["grad", "--spec", p, "--out", tmp_path]) == 3


def test_classical_vanishing_label_is_exit_three_as_for_cq(tmp_path, capsys):
    # p(v = 1) = e^{-800} underflows to 0 while the target puts 1/2 on v = 1
    energies = [[0.0, 0.0], [800.0, 800.0]]
    models = {
        "classical": {"kind": "classical", "tables": [energies], "theta": [1.0]},
        "cq": {"kind": "cq", "dims": {"visible": 2, "hidden": 2}, "theta": [1.0],
               "terms": [matrix_to_json(np.diag(np.ravel(energies)).astype(complex))]},
    }
    for kind, model in models.items():
        p = tmp_path / f"{kind}.json"
        p.write_text(json.dumps({"model": model, "target": {"probs": [0.5, 0.5]}}))
        assert run(["grad", "--spec", p, "--out", tmp_path]) == 3, kind
        assert "target puts mass on a label with vanishing model weight" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


def test_oversize_shot_training_is_exit_three(tmp_path, monkeypatch):
    # 4 d_v^2 d_h = 4 * 4 * 32 = 512 exceeds the circuit limit; the shot
    # problem raises when it is built, before any eigenvalue groups
    import qbmgrad.training

    monkeypatch.setattr(qbmgrad.training, "eigen_groups", lambda g_j: pytest.fail("groups formed"))
    rng = np.random.default_rng(4)
    a = rng.normal(size=(64, 64))
    spec = {
        "model": {"kind": "generic", "dims": {"visible": 2, "hidden": 32},
                  "terms": [matrix_to_json(0.05 * (a + a.T).astype(complex))], "theta": [0.5]},
        "target": {"state": matrix_to_json(np.eye(2, dtype=complex) / 2)},
    }
    p = tmp_path / "big.json"
    p.write_text(json.dumps(spec))
    assert run(["train", "--spec", p, "--mode", "shot", "--shots", "16", "--out", tmp_path]) == 3
    assert not (tmp_path / "report.json").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["bogus-command"])
    assert exc.value.code == 2


@pytest.fixture
def fresh_parser():
    """No parser cached before or after the test."""
    build_parser.cache_clear()
    yield build_parser
    build_parser.cache_clear()


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, fresh_parser):
    # one sequence through the shared parser, then each call with a parser of its own
    calls = [["train", "--spec", DEMOS / "train_qubit.json", "--iterations", "5"],
             ["grad", "--spec", DEMOS / "grad_qubit.json"],
             ["grad", "--spec", DEMOS / "grad_qubit.json", "--threads", "2"],  # usage error
             ["train", "--spec", DEMOS / "train_qubit.json", "--threads", "0"]]

    def outcome(k, argv):
        out = tmp_path / f"cmd{k}"
        try:
            code = run([*argv, "--out", out])
        except SystemExit as exc:
            code = exc.code
        printed = capsys.readouterr()
        files = {p.name: p.read_text() for p in sorted(out.glob("*"))} if out.exists() else {}
        for p in out.glob("*"):
            p.unlink()
        return code, printed.out, printed.err, files.get("report.json")

    shared = [outcome(k, argv) for k, argv in enumerate(calls)]
    assert fresh_parser.cache_info().misses == 1 and fresh_parser.cache_info().hits == 3
    fresh = []
    for k, argv in enumerate(calls):
        fresh_parser.cache_clear()
        fresh.append(outcome(k, argv))
    assert shared == fresh
    assert [o[0] for o in shared] == [0, 0, 2, 2]
    assert shared[0][3] is not None and shared[1][3] is not None
    assert "error: unrecognized arguments: --threads 2" in shared[2][2]
    assert "argument --threads: expected a positive integer, got 0" in shared[3][2]


def test_threads_default_to_the_cpu_count(monkeypatch, fresh_parser):
    args, _ = fresh_parser().parse_known_args(["train", "--spec", "spec.json"])
    assert args.threads == (os.cpu_count() or 1)
    fresh_parser.cache_clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert fresh_parser().parse_known_args(["estimate", "--spec", "spec.json"])[0].threads == 3


@pytest.mark.parametrize("command, flags", [
    ("estimate", ["--epsilon", "0"]),
    ("estimate", ["--delta", "0"]),
    ("train", ["--learning-rate", "0"]),
    ("train", ["--iterations", "0"]),
    ("train", ["--log-every", "0"]),
    ("train", ["--mode", "shot", "--epsilon", "0"]),
    ("train", ["--mode", "shot", "--delta", "0"]),
    ("estimate", ["--epsilon", "nan"]),
    ("estimate", ["--epsilon", "inf"]),
    ("train", ["--learning-rate", "nan"]),
    ("train", ["--learning-rate", "inf"]),
    ("train", ["--mode", "shot", "--epsilon", "nan"]),
    ("train", ["--mode", "shot", "--epsilon", "inf"]),
    # a Hoeffding count that overflows or exceeds MAX_SHOTS, and --shots above it
    ("estimate", ["--epsilon", "1e-300"]),
    ("estimate", ["--epsilon", "1e-6"]),
    ("estimate", ["--shots", "100000001"]),
    ("train", ["--mode", "shot", "--epsilon", "1e-6"]),
    ("train", ["--mode", "shot", "--shots", "100000001"]),
])
def test_zero_flag_is_input_error(tmp_path, capsys, command, flags):
    spec = "estimate.json" if command == "estimate" else "train_qubit.json"
    assert run([command, "--spec", DEMOS / spec, "--out", tmp_path, *flags]) == 2
    assert "input error:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("spec, flags", [
    ("train_qubit.json", ["--epsilon", "0.1"]),
    ("train_qubit.json", ["--delta", "0.1"]),
    ("train_qubit.json", ["--shots", "100"]),
    ("grad_classical.json", ["--mode", "shot", "--epsilon", "0.1"]),
    ("grad_classical.json", ["--mode", "shot", "--delta", "0.1"]),
])
def test_unread_shot_flag_is_input_error(tmp_path, capsys, spec, flags):
    # exact mode reads no shot flag; classical shot mode reads --shots only
    assert run(["train", "--spec", DEMOS / spec, "--iterations", "3", "--out", tmp_path,
                *flags]) == 2
    assert f"input error: {flags[-2]} " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", ["grad_qubit", "grad_qc"])
@pytest.mark.parametrize("command", ["grad", "train"])
def test_non_density_target_is_input_error(tmp_path, capsys, name, command):
    raw = json.loads((DEMOS / f"{name}.json").read_text())
    raw["target"] = {"state": matrix_to_json(np.diag([1.5, -0.5]).astype(complex))}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    assert run([command, "--spec", spec, "--out", tmp_path]) == 2
    assert "input error: state not positive semidefinite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_estimate_validates_its_target_once(tmp_path, capsys, monkeypatch):
    built = []
    post_init = Target.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Target, "__post_init__", counting)
    assert run(["estimate", "--spec", DEMOS / "estimate.json", "--shots", "500",
                "--out", tmp_path / "ok"]) == 0
    assert len(built) == 1
    raw = json.loads((DEMOS / "estimate.json").read_text())
    raw["target"] = {"state": matrix_to_json(np.diag([1.5, -0.5]).astype(complex))}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    assert run(["estimate", "--spec", spec, "--out", tmp_path / "bad"]) == 2
    assert "input error: state not positive semidefinite" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["grad_qc", "grad_cq", "grad_classical", "train_qubit"])
def test_unknown_spec_mode_is_input_error(tmp_path, capsys, name):
    raw = json.loads((DEMOS / f"{name}.json").read_text())
    raw["train"] = {**raw.get("train", {}), "mode": "exatc"}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    assert run(["train", "--spec", spec, "--out", tmp_path]) == 2
    assert "input error: unknown gradient mode 'exatc'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_negative_seed_flag_is_input_error(tmp_path, capsys):
    assert run(["estimate", "--spec", DEMOS / "estimate.json", "--seed", "-1",
                "--out", tmp_path]) == 2
    assert "input error: --seed must be nonnegative" in capsys.readouterr().err


def test_negative_seed_env_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QBMGRAD_SEED", "-1")
    assert run(["estimate", "--spec", DEMOS / "estimate.json", "--out", tmp_path]) == 2
    assert "input error: QBMGRAD_SEED must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("path, field", [
    (("model", "theta", 0), "model theta"),
    (("model", "terms", 0, 1, 1, 0), "term"),
    (("target", "state", 0, 0, 0), "target state"),
], ids=["nan-theta", "infinite-term", "nan-target"])
@pytest.mark.parametrize("command", ["grad", "train"])
def test_non_finite_spec_number_is_input_error(tmp_path, capsys, path, field, command):
    raw = json.loads((DEMOS / "grad_qubit.json").read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = float("inf") if field == "term" else float("nan")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))  # writes the NaN / Infinity literals
    assert run([command, "--spec", spec, "--out", tmp_path]) == 2
    assert f"input error: {field}: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--spec", "spec.json"]),
    ("verify", ["--objective", "tsallis"]),
    ("verify", ["--q", "0.5"]),
    ("verify", ["--seed", "3"]),
    ("verify", ["--threads", "7"]),
    ("grad", ["--threads", "1"]),
    ("estimate", ["--objective", "umegaki"]),
    ("estimate", ["--q", "0.5"]),
])
def test_unread_flag_is_usage_error(tmp_path, capsys, command, flags):
    spec = {"verify": [], "grad": ["--spec", DEMOS / "grad_qubit.json"],
            "estimate": ["--spec", DEMOS / "estimate.json"]}[command]
    with pytest.raises(SystemExit) as exc:
        run([command, *spec, "--out", tmp_path, *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qbmgrad {command} [-h]")
    assert f"error: unrecognized arguments: {' '.join(flags)}" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, demo, path, value, field", [
    ("train", "train_qubit", ("seed",), float("inf"), "seed"),
    ("train", "train_qubit", ("seed",), 1.7, "seed"),
    ("train", "train_qubit", ("train", "learning_rate"), float("nan"), "train.learning_rate"),
    ("train", "train_qubit", ("train", "iterations"), 3.9, "train.iterations"),
    ("train", "train_qubit", ("train",), [1, 2], "train"),
    ("estimate", "estimate", ("estimate", "epsilon"), float("nan"), "estimate.epsilon"),
    ("estimate", "estimate", ("estimate", "shots"), 300.9, "estimate.shots"),
    ("estimate", "estimate", ("estimate", "term_index"), 0.7, "estimate.term_index"),
    ("estimate", "estimate", ("estimate",), [1, 2], "estimate"),
    ("grad", "grad_qubit", ("model", "dims", "visible"), "two", "model dims visible"),
    ("grad", "grad_qubit", ("model", "dims", "visible"), float("inf"), "model dims visible"),
    ("grad", "grad_tsallis", ("objective", "q"), "x", "objective q"),
    # bool is an int in Python, so a JSON boolean read as the number 1 or 0
    ("train", "train_qubit", ("seed",), True, "seed"),
    ("estimate", "estimate", ("estimate", "shots"), True, "estimate.shots"),
    ("train", "grad_classical", ("model", "theta", 2), True, "model.theta[2]"),
    ("grad", "grad_qubit", ("model", "terms", 0, 1, 1, 0), False, "model.terms[0][1][1][0]"),
], ids=["infinite-seed", "fractional-seed", "nan-learning-rate", "fractional-iterations",
        "train-list", "nan-epsilon", "fractional-shots", "fractional-term", "estimate-list",
        "string-dims", "infinite-dims", "string-q", "boolean-seed", "boolean-shots",
        "boolean-theta", "boolean-matrix-entry"])
def test_bad_spec_scalar_is_input_error(tmp_path, capsys, command, demo, path, value, field):
    raw = json.loads((DEMOS / f"{demo}.json").read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))  # writes the NaN / Infinity literals
    assert run([command, "--spec", spec, "--out", tmp_path]) == 2
    assert f"input error: {field}: expected " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("train", "learning_rate", float("nan"), "train.learning_rate: expected a finite number"),
    ("train", "log_every", float("inf"), "train.log_every: expected an integer"),
    ("train", "delta", "small", "train.delta: expected a finite number"),
    ("train", "iterations", 2.5, "train.iterations: expected an integer"),
    ("train", "mode", 7, "unknown gradient mode 7"),
    ("train", "mode", "exatc", "unknown gradient mode 'exatc'"),
    ("estimate", "epsilon", float("nan"), "estimate.epsilon: expected a finite number"),
    ("estimate", "delta", float("-inf"), "estimate.delta: expected a finite number"),
    ("estimate", "shots", "many", "estimate.shots: expected an integer"),
    ("estimate", "term_index", 0.5, "estimate.term_index: expected an integer"),
], ids=["train-nan", "train-infinite", "train-string", "train-fractional", "train-numeric-mode",
        "train-misspelt-mode", "estimate-nan", "estimate-infinite", "estimate-string",
        "estimate-fractional"])
@pytest.mark.parametrize("command", ["grad", "train", "estimate"])
def test_bad_option_fails_every_command(tmp_path, capsys, command, section, key, value, message):
    # every option section is checked when the spec loads, read by the command or not
    spec = _edited_spec(tmp_path, "estimate", lambda raw: raw[section].update({key: value}))
    assert run([command, "--spec", spec, "--out", tmp_path]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, demo", [
    ("grad", "grad_fixed_point"), ("train", "grad_fixed_point"), ("estimate", "estimate"),
])
def test_wrong_size_target_state_is_input_error(tmp_path, capsys, command, demo):
    raw = json.loads((DEMOS / f"{demo}.json").read_text())
    raw["target"] = {"state": matrix_to_json(np.eye(3) / 3)}  # the model has d_v = 2
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    assert run([command, "--spec", spec, "--out", tmp_path]) == 2
    assert ("input error: target state: expected a 2x2 matrix (the visible dimension), got 3x3"
            in capsys.readouterr().err)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("demo", ["grad_classical", "grad_cq"])
@pytest.mark.parametrize("command", ["grad", "train"])
def test_wrong_length_target_probs_is_input_error(tmp_path, capsys, command, demo):
    raw = json.loads((DEMOS / f"{demo}.json").read_text())
    probs = raw["target"]["probs"]
    raw["target"]["probs"] = probs[:-1] + [probs[-1] / 2, probs[-1] / 2]  # still normalized
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    assert run([command, "--spec", spec, "--out", tmp_path]) == 2
    d_v = len(probs)
    assert (f"input error: target probs: expected {d_v} entries (the visible dimension), "
            f"got {d_v + 1}") in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["grad", "train"])
def test_nested_target_probs_name_their_shape(tmp_path, capsys, command):
    spec = _edited_spec(tmp_path, "grad_cq",
                        lambda raw: raw["target"].update(probs=[raw["target"]["probs"]]))
    assert run([command, "--spec", spec, "--out", tmp_path]) == 2
    assert ("input error: target probs: expected 2 entries (the visible dimension), "
            "got an array of shape (1, 2)") in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_q_with_umegaki_objective_is_input_error(tmp_path, capsys):
    assert run(["grad", "--spec", DEMOS / "grad_qubit.json", "--objective", "umegaki",
                "--q", "0.5", "--out", tmp_path]) == 2
    assert "input error: --q applies to --objective tsallis only" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _edited_spec(tmp_path, demo, edit) -> Path:
    raw = json.loads((DEMOS / f"{demo}.json").read_text())
    edit(raw)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    return spec


@pytest.mark.parametrize("command, demo, path, key, what", [
    ("train", "train_qubit", ("train",), "learning_rat", "train"),
    ("estimate", "estimate", ("estimate",), "epsilonn", "estimate"),
    ("grad", "grad_tsallis", (), "objectve", "run spec"),
    ("grad", "grad_tsallis", ("objective",), "order", "objective"),
    ("grad", "grad_qubit", ("target",), "sate", "target"),
    ("grad", "grad_qubit", ("model", "dims"), "visble", "model dims"),
    ("grad", "grad_qubit", ("model",), "hidden_basis", "generic model"),
    ("grad", "grad_qc", ("model",), "visible_basis", "qc model"),
    ("grad", "grad_cq", ("model",), "hidden_basis", "cq model"),
    ("grad", "grad_restricted", ("model",), "theta", "restricted model"),
    ("grad", "grad_classical", ("model",), "dims", "classical model"),
], ids=["train", "estimate", "top-level", "objective", "target", "dims", "generic", "qc", "cq",
        "restricted", "classical"])
def test_unknown_spec_field_is_input_error(tmp_path, capsys, command, demo, path, key, what):
    def edit(raw):
        node = raw
        for step in path:
            node = node[step]
        node[key] = 5.0
    spec = _edited_spec(tmp_path, demo, edit)
    assert run([command, "--spec", spec, "--out", tmp_path]) == 2
    assert f"input error: {what}: unknown field {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_target_with_state_and_probs_is_input_error(tmp_path, capsys):
    spec = _edited_spec(tmp_path, "grad_qubit",
                        lambda raw: raw["target"].update(probs=[0.5, 0.5]))
    assert run(["grad", "--spec", spec, "--out", tmp_path]) == 2
    assert "input error: target must provide 'state' or 'probs', not both" in capsys.readouterr().err


def test_q_with_umegaki_spec_objective_is_input_error(tmp_path, capsys):
    spec = _edited_spec(tmp_path, "grad_qubit", lambda raw: raw["objective"].update(q=0.5))
    assert run(["grad", "--spec", spec, "--out", tmp_path]) == 2
    assert "input error: objective: q applies to the tsallis objective only" in capsys.readouterr().err


@pytest.mark.parametrize("demo, train", [
    ("train_qubit", {"epsilon": 0.1}),
    ("train_qubit", {"delta": 0.1}),
    ("train_qubit", {"shots": 100}),
    ("grad_classical", {"mode": "shot", "epsilon": 0.1}),
    ("grad_classical", {"mode": "shot", "delta": 0.1}),
], ids=["exact-epsilon", "exact-delta", "exact-shots", "classical-epsilon", "classical-delta"])
def test_unread_shot_spec_field_is_input_error(tmp_path, capsys, demo, train):
    spec = _edited_spec(tmp_path, demo, lambda raw: raw["train"].update(train))
    assert run(["train", "--spec", spec, "--iterations", "3", "--out", tmp_path]) == 2
    assert f"input error: train.{list(train)[-1]} " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_unset_settings_keep_config_defaults(tmp_path):
    spec = _edited_spec(tmp_path, "train_qubit", lambda raw: raw.pop("train"))
    assert run(["train", "--spec", spec, "--out", tmp_path / "train"]) == 0
    rep = json.loads((tmp_path / "train" / "report.json").read_text())
    assert rep["iterations"] == TrainConfig().iterations
    spec = _edited_spec(tmp_path, "estimate", lambda raw: raw.pop("estimate"))
    assert run(["estimate", "--spec", spec, "--shots", "500", "--out", tmp_path / "est"]) == 0
    rep = json.loads((tmp_path / "est" / "report.json").read_text())
    assert (rep["term_index"], rep["shots"]) == (0, 500)
    assert (rep["epsilon"], rep["delta_fail"]) == (EstimatorConfig().epsilon,
                                                   EstimatorConfig().delta_fail)


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.json")), ids=lambda p: p.stem)
def test_grad_report_terms_add_up(tmp_path, path):
    assert run(["grad", "--spec", path, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    terms = np.array(rep["first_terms"]) - np.array(rep["second_terms"])
    assert np.max(np.abs(np.array(rep["values"]) - terms)) <= 1e-12


def test_classical_grad_reports_both_terms(tmp_path):
    # each term on its own, not the whole gradient as the target term
    spec = load_runspec(DEMOS / "grad_classical.json")
    assert run(["grad", "--spec", DEMOS / "grad_classical.json", "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    p_vh = classical_distribution(spec.model.tables, spec.model.theta)
    data = p_vh / p_vh.sum(axis=1, keepdims=True) * spec.target_probs[:, None]  # q(v) p(h|v)
    first = [float(np.sum(data * t)) for t in spec.model.tables]
    second = [float(np.sum(p_vh * t)) for t in spec.model.tables]
    assert np.max(np.abs(np.array(rep["first_terms"]) - first)) < 1e-12
    assert np.max(np.abs(np.array(rep["second_terms"]) - second)) < 1e-12
    assert round(rep["first_terms"][0], 6) == 0.135263 and round(rep["second_terms"][0], 6) == -0.120417


def _add_w_row(raw):
    raw["model"]["w"].append([0.0] * len(raw["model"]["w"][0]))


def _skew_first_term(raw):
    raw["model"]["terms"][0][0][1] = [5.0, 0.0]  # entry (0, 1) no longer mirrors (1, 0)


@pytest.mark.parametrize("demo, edit, message", [
    ("grad_restricted", _add_w_row, "restricted parameter shapes inconsistent with V/H lists"),
    ("grad_qubit", _skew_first_term, "matrix is not Hermitian: max asymmetry"),
], ids=["restricted-w-shape", "generic-non-hermitian-term"])
def test_bad_model_fails_at_load_and_exits_2(tmp_path, capsys, demo, edit, message):
    spec = _edited_spec(tmp_path, demo, edit)
    with pytest.raises(SpecError, match=message):
        load_runspec(spec)
    assert run(["grad", "--spec", spec, "--out", tmp_path]) == 2
    assert f"input error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("demo", ["grad_classical", "grad_cq"])
def test_probs_sum_error_above_1e_10_is_input_error(tmp_path, capsys, demo):
    # the one label-target check, for classical tables as for cq models
    def nudge(raw):
        raw["target"]["probs"][0] += 5e-10

    assert run(["grad", "--spec", _edited_spec(tmp_path, demo, nudge), "--out", tmp_path]) == 2
    assert ("input error: target probs must be a normalized nonnegative vector"
            in capsys.readouterr().err)


def _drop_classical_theta(raw):
    raw["model"]["theta"].pop()


def _nest_classical_theta(raw):
    raw["model"]["theta"] = [raw["model"]["theta"]]


@pytest.mark.parametrize("command", ["grad", "train"])
@pytest.mark.parametrize("edit", [_drop_classical_theta, _nest_classical_theta],
                         ids=["short", "nested"])
def test_classical_theta_shape_is_input_error(tmp_path, capsys, command, edit):
    # theta must be a vector with one entry per table, as for the generic kind
    spec = _edited_spec(tmp_path, "grad_classical", edit)
    assert run([command, "--spec", spec, "--out", tmp_path]) == 2
    assert "input error: theta length (" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("spec, flags, message", [
    ("train_qubit.json", ["--objective", "tsallis", "--q", "1.5"],
     "shot-mode gradients cover the umegaki objective only"),
    ("grad_qc.json", [], "shot-mode training covers generic, restricted and classical models only"),
    ("grad_cq.json", [], "shot-mode training covers generic, restricted and classical models only"),
    ("grad_classical.json", ["--objective", "tsallis", "--q", "1.5"],
     "classical tables support the umegaki objective only"),
])
def test_unsupported_shot_run_is_input_error(tmp_path, capsys, spec, flags, message):
    assert run(["train", "--spec", DEMOS / spec, "--mode", "shot", "--iterations", "3",
                "--out", tmp_path, *flags]) == 2
    assert f"input error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, spec, value", [
    ("train", "grad_qubit.json", "0"),
    ("train", "grad_qubit.json", "-5"),
    ("estimate", "estimate.json", "0"),
])
def test_non_positive_threads_is_usage_error(tmp_path, capsys, command, spec, value):
    # exact training never builds the EstimatorConfig that checks threads
    with pytest.raises(SystemExit) as exc:
        run([command, "--spec", DEMOS / spec, "--threads", value, "--out", tmp_path])
    assert exc.value.code == 2
    assert (f"error: argument --threads: expected a positive integer, got {value}"
            in capsys.readouterr().err)
    assert not (tmp_path / "report.json").exists()


def test_out_path_that_is_a_file_is_input_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["grad", "--spec", DEMOS / "grad_qubit.json", "--out", taken]) == 2
    assert f"input error: --out: cannot write {taken}: File exists" in capsys.readouterr().err
    assert taken.read_text() == ""
    (tmp_path / "out" / "report.json").mkdir(parents=True)  # the report's own path is taken
    assert run(["grad", "--spec", DEMOS / "grad_qubit.json", "--out", tmp_path / "out"]) == 2
    assert (f"input error: --out: cannot write {tmp_path / 'out' / 'report.json'}: Is a directory"
            in capsys.readouterr().err)


def test_spec_path_that_is_a_directory_is_input_error(tmp_path, capsys):
    assert run(["grad", "--spec", DEMOS, "--out", tmp_path]) == 2
    assert f"input error: cannot read spec file {DEMOS}: Is a directory" in capsys.readouterr().err
    assert run(["grad", "--spec", tmp_path / "nope.json", "--out", tmp_path]) == 2
    assert "input error: spec file not found:" in capsys.readouterr().err


def test_deeply_nested_spec_is_input_error(tmp_path, capsys):
    # json.loads gives up on deep nesting with a RecursionError, not a JSONDecodeError
    raw = json.loads((DEMOS / "train_qubit.json").read_text())
    raw["train"]["iterations"] = None
    depth = 5_000
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw).replace('"iterations": null',
                                            '"iterations": ' + "[" * depth + "]" * depth))
    assert run(["train", "--spec", spec, "--out", tmp_path / "out"]) == 2
    assert "input error: spec file nests too deeply to parse" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
