import json
from pathlib import Path

import numpy as np
import pytest

from qbmgrad.errors import SpecError
from qbmgrad.runspec import (
    fmt17,
    load_runspec,
    matrix_from_json,
    matrix_to_json,
    parse_runspec,
)
from conftest import rand_herm


def test_matrix_roundtrip(rng):
    m = rand_herm(rng, 3) + 1j * 0  # complex entries
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_from_json_rejects_garbage():
    with pytest.raises(SpecError):
        matrix_from_json([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(SpecError):
        matrix_from_json("nope")


def _minimal_spec():
    z = matrix_to_json(np.diag([1.0, -1.0]).astype(complex))
    rho = matrix_to_json(np.diag([1.0, 0.0]).astype(complex))
    return {
        "model": {"kind": "generic", "dims": {"visible": 2, "hidden": 1},
                  "terms": [z], "theta": [0.0]},
        "target": {"state": rho},
        "seed": 3,
    }


def test_parse_minimal_spec():
    spec = parse_runspec(_minimal_spec())
    assert spec.model.kind == "generic"
    assert spec.seed == 3
    assert spec.objective.kind == "umegaki"
    assert spec.model.hamiltonian.dims.total == 2


def test_parse_rejects_missing_fields():
    raw = _minimal_spec()
    del raw["target"]
    with pytest.raises(SpecError):
        parse_runspec(raw)
    raw = _minimal_spec()
    del raw["model"]["terms"]
    with pytest.raises(SpecError):
        parse_runspec(raw)


def test_parse_rejects_wrong_target_kind():
    raw = _minimal_spec()
    raw["target"] = {"probs": [0.5, 0.5]}
    with pytest.raises(SpecError):
        parse_runspec(raw)


def test_parse_rejects_bad_probs():
    raw = _minimal_spec()
    raw["model"]["kind"] = "cq"
    raw["model"]["dims"] = {"visible": 2, "hidden": 1}
    raw["target"] = {"probs": [0.9, 0.3]}
    with pytest.raises(SpecError):
        parse_runspec(raw)


def test_parse_clamps_probs_within_rounding():
    raw = _minimal_spec()
    raw["model"]["kind"] = "cq"
    raw["target"] = {"probs": [-5e-13, 1.0 + 5e-13]}
    assert parse_runspec(raw).target_probs[0] == 0.0


DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo, path, field", [
    ("grad_qubit", ("model", "theta", 0), "model theta"),
    ("grad_qubit", ("model", "terms", 0, 0, 0, 0), "term"),
    ("grad_qubit", ("target", "state", 1, 1, 1), "target state"),
    ("grad_restricted", ("model", "a", 0), "restricted a"),
    ("grad_restricted", ("model", "b", 0), "restricted b"),
    ("grad_restricted", ("model", "w", 0, 0), "restricted w"),
    ("grad_restricted", ("model", "V", 0, 0, 0, 0), "V operator"),
    ("grad_classical", ("model", "tables", 0, 0, 0), "classical tables"),
    ("grad_classical", ("model", "theta", 0), "classical theta"),
    ("grad_classical", ("target", "probs", 0), "target probs"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_parse_rejects_non_finite_numbers(demo, path, field, value):
    raw = json.loads((DEMOS / f"{demo}.json").read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    raw = json.loads(json.dumps(raw))  # through the NaN/Infinity literals json accepts
    with pytest.raises(SpecError, match=f"^{field}: non-finite value"):
        parse_runspec(raw)


def test_parse_objective_forms():
    raw = _minimal_spec()
    raw["objective"] = {"kind": "tsallis", "q": 1.5}
    assert parse_runspec(raw).objective.q == 1.5
    raw["objective"] = {"kind": "nonsense"}
    with pytest.raises(SpecError):
        parse_runspec(raw)


def test_load_runspec_errors(tmp_path):
    with pytest.raises(SpecError):
        load_runspec(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        load_runspec(bad)


def test_fmt17_roundtrips():
    for x in (1 / 3, np.pi, 1e-17, -0.0, 123456.789):
        assert float(fmt17(x)) == float(x)


def test_demo_specs_all_parse():
    from pathlib import Path

    demos = sorted(Path(__file__).resolve().parents[1].joinpath("demos").glob("*.json"))
    assert len(demos) >= 8
    for path in demos:
        spec = load_runspec(path)
        assert spec.model.kind in ("generic", "restricted", "qc", "cq", "classical")


def test_integral_spec_numbers_still_parse():
    raw = _minimal_spec()
    raw["seed"] = 3.0
    raw["model"]["dims"] = {"visible": 2.0, "hidden": 1}
    raw["train"] = {"iterations": 3.0, "learning_rate": 1, "mode": "shot"}
    raw["estimate"] = {"shots": 0.0, "epsilon": 0}  # ranges are the configs' to check
    spec = parse_runspec(raw)
    assert spec.seed == 3 and isinstance(spec.seed, int)
    assert spec.model.dims.total == 2
    assert spec.train == {"iterations": 3, "learning_rate": 1.0, "mode": "shot"}
    assert isinstance(spec.train["iterations"], int)
    assert isinstance(spec.train["learning_rate"], float)
    assert spec.estimate == {"shots": 0, "epsilon": 0.0} and isinstance(spec.estimate["shots"], int)
