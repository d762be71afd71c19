"""JSON run specifications: model, target, objective, per-command options.

Complex matrices are serialized as row-major nested arrays of [re, im]
pairs; probability vectors as plain arrays.  Restricted models pack theta
in the order (a, b, row-major w).  Python's ``json`` accepts the ``NaN``
and ``Infinity`` literals, so every parsed number is checked to be finite.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SpecError
from .gradients import Objective, UMEGAKI, label_probs, tsallis
from .linalg import MAX_DIM, BipartiteDims
from .models import ParamHamiltonian, _checked_theta, restricted_hamiltonian


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _real_array(obj, what: str, expected: str = "an array of real numbers") -> np.ndarray:
    """``obj`` as a float array; SpecError naming ``what`` unless every
    entry is a finite number."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what}: expected {expected}") from exc
    if not np.isfinite(arr).all():
        raise SpecError(f"{what}: non-finite value (NaN or Infinity)")
    return arr


def spec_number(value, what: str, *, integer: bool = False):
    """``value`` as a finite float, or as an int when ``integer``; SpecError
    naming ``what`` for anything else, a fractional number included."""
    if integer and isinstance(value, numbers.Integral):
        return int(value)
    try:
        num = float(value)
    except (TypeError, ValueError):
        num = math.nan
    if not math.isfinite(num) or (integer and not num.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise SpecError(f"{what}: expected {kind}, got {value!r}")
    return int(num) if integer else num


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    arr = _real_array(obj, what, "nested [re, im] arrays")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise SpecError(f"{what}: expected a square matrix of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


@dataclass
class ModelSpec:
    """A parsed model: the ``hamiltonian`` built at parse time and any qc
    hidden or cq visible ``basis``, or classical ``tables`` and ``theta``."""

    kind: str
    dims: BipartiteDims
    hamiltonian: ParamHamiltonian | None = None
    basis: np.ndarray | None = None
    tables: np.ndarray | None = None
    theta: np.ndarray | None = None


@dataclass
class RunSpec:
    model: ModelSpec
    target_state: np.ndarray | None
    target_probs: np.ndarray | None
    objective: Objective
    seed: int
    train: dict
    estimate: dict


# the fields each JSON object of a run spec may hold; any other key is an
# input error, so a misspelt option never falls back to its default
SPEC_FIELDS = ("model", "target", "objective", "seed", "train", "estimate")
MODEL_FIELDS = {
    "generic": ("kind", "dims", "terms", "theta"),
    "qc": ("kind", "dims", "terms", "theta", "hidden_basis"),
    "cq": ("kind", "dims", "terms", "theta", "visible_basis"),
    "restricted": ("kind", "V", "H", "a", "b", "w"),
    "classical": ("kind", "tables", "theta"),
}
DIMS_FIELDS = ("visible", "hidden")
TARGET_FIELDS = ("state", "probs")
OBJECTIVE_FIELDS = ("kind", "q")
# option kinds: int for an integer, float for a finite number, or the allowed
# values; range checks stay with the configs that read the options
TRAIN_FIELDS = {"mode": ("exact", "shot"), "learning_rate": float, "iterations": int,
                "log_every": int, "epsilon": float, "delta": float, "shots": int}
ESTIMATE_FIELDS = {"term_index": int, "epsilon": float, "delta": float, "shots": int}


def _object(value, what: str, fields: tuple[str, ...] | None = None) -> dict:
    """``value`` as a JSON object; SpecError naming the first key outside
    ``fields``, when given."""
    if not isinstance(value, dict):
        raise SpecError(f"{what}: expected a JSON object, got {value!r}")
    unknown = [key for key in value if key not in fields] if fields is not None else []
    if unknown:
        raise SpecError(f"{what}: unknown field {unknown[0]!r} "
                        f"(expected one of {', '.join(fields)})")
    return value


def _options(raw: dict, section: str, fields: dict) -> dict:
    """The ``section`` object of a spec, each value checked against its kind."""
    opts = dict(_object(raw.get(section, {}), section, tuple(fields)))
    for key, value in opts.items():
        if fields[key] in (int, float):
            opts[key] = spec_number(value, f"{section}.{key}", integer=fields[key] is int)
        elif value not in fields[key]:
            raise SpecError(f"unknown gradient mode {value!r}")
    return opts


def _require(d: dict, key: str, what: str):
    if key not in _object(d, what):
        raise SpecError(f"{what}: missing required field {key!r}")
    return d[key]


def _parse_model(raw: dict) -> ModelSpec:
    kind = _require(raw, "kind", "model")
    if kind not in MODEL_FIELDS:
        raise SpecError(f"unknown model kind {kind!r}")
    _object(raw, f"{kind} model", MODEL_FIELDS[kind])
    if kind == "classical":
        tables = _real_array(_require(raw, "tables", "classical model"), "classical tables")
        if tables.ndim != 3:
            raise SpecError("classical tables must be J x d_v x d_h")
        theta = _checked_theta(
            _real_array(_require(raw, "theta", "classical model"), "classical theta"),
            tables.shape[0])
        return ModelSpec(kind, BipartiteDims(tables.shape[1], tables.shape[2]),
                         tables=tables, theta=theta)
    if kind == "restricted":
        v_ops = [matrix_from_json(m, "V operator") for m in _require(raw, "V", "restricted model")]
        h_ops = [matrix_from_json(m, "H operator") for m in _require(raw, "H", "restricted model")]
        a, b, w = (_real_array(_require(raw, k, "restricted model"), f"restricted {k}")
                   for k in ("a", "b", "w"))
        ham = restricted_hamiltonian(a, b, w, v_ops, h_ops)
        return ModelSpec(kind, ham.dims, ham)
    dims_raw = _object(_require(raw, "dims", "model"), "model dims", DIMS_FIELDS)
    dims = BipartiteDims(*(
        spec_number(_require(dims_raw, k, "model dims"), f"model dims {k}", integer=True)
        for k in ("visible", "hidden")))
    if dims.total > MAX_DIM:
        raise SpecError(f"total dimension {dims.total} exceeds {MAX_DIM}")
    terms = [matrix_from_json(m, "term") for m in _require(raw, "terms", "model")]
    theta = _real_array(_require(raw, "theta", "model"), "model theta")
    basis_key = {"qc": "hidden_basis", "cq": "visible_basis"}.get(kind)
    basis = matrix_from_json(raw[basis_key], basis_key.replace("_", " ")) if basis_key in raw else None
    ham = ParamHamiltonian(dims=dims, terms=tuple(terms), theta=theta)
    return ModelSpec(kind, dims, ham, basis)


def _parse_objective(raw) -> Objective:
    if raw is None:
        return UMEGAKI
    kind = _require(_object(raw, "objective", OBJECTIVE_FIELDS), "kind", "objective")
    if kind == "umegaki":
        if "q" in raw:
            raise SpecError("objective: q applies to the tsallis objective only")
        return UMEGAKI
    if kind == "tsallis":
        return tsallis(spec_number(_require(raw, "q", "objective"), "objective q"))
    raise SpecError(f"unknown objective kind {kind!r}")


def load_runspec(path: str | Path) -> RunSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise SpecError(f"spec file not found: {path}") from exc
    except OSError as exc:  # a directory, or no permission
        raise SpecError(f"cannot read spec file {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecError(f"spec file nests too deeply to parse: {path}") from exc
    return parse_runspec(raw)


def _reject_booleans(value, where: str) -> None:
    """SpecError naming the first JSON boolean in ``value``: no run-spec field
    takes one, and Python would read ``true`` as the number 1."""
    if isinstance(value, bool):
        raise SpecError(f"{where}: expected no JSON boolean (no run-spec field takes one), "
                        f"got {json.dumps(value)}")
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            _reject_booleans(item, f"{where}.{key}" if isinstance(key, str) else f"{where}[{key}]")


def parse_runspec(raw: dict) -> RunSpec:
    if not isinstance(raw, dict):
        raise SpecError("run spec must be a JSON object")
    for key, value in raw.items():
        _reject_booleans(value, key)
    _object(raw, "run spec", SPEC_FIELDS)
    model = _parse_model(_require(raw, "model", "run spec"))
    target_raw = _object(_require(raw, "target", "run spec"), "target", TARGET_FIELDS)
    target_state = target_probs = None
    if len(target_raw) > 1:
        raise SpecError("target must provide 'state' or 'probs', not both")
    if "state" in target_raw:
        target_state = matrix_from_json(target_raw["state"], "target state")
    elif "probs" in target_raw:
        target_probs = _real_array(target_raw["probs"], "target probs")
    else:
        raise SpecError("target must provide 'state' or 'probs'")
    if model.kind in ("generic", "restricted", "qc") and target_state is None:
        raise SpecError(f"model kind {model.kind!r} needs a density-matrix target")
    if model.kind in ("cq", "classical") and target_probs is None:
        raise SpecError(f"model kind {model.kind!r} needs a probability-vector target")
    d_v = model.dims.d_v
    if target_state is not None and target_state.shape != (d_v, d_v):
        raise SpecError(f"target state: expected a {d_v}x{d_v} matrix (the visible "
                        f"dimension), got {target_state.shape[0]}x{target_state.shape[1]}")
    if target_probs is not None:
        target_probs = label_probs(target_probs, d_v)
    return RunSpec(
        model=model,
        target_state=target_state,
        target_probs=target_probs,
        objective=_parse_objective(raw.get("objective")),
        seed=spec_number(raw.get("seed", 0), "seed", integer=True),
        train=_options(raw, "train", TRAIN_FIELDS),
        estimate=_options(raw, "estimate", ESTIMATE_FIELDS),
    )


def fmt17(x: float) -> str:
    """Serialize a float with 17 significant digits (bit-faithful round trip)."""
    return format(float(x), ".17g")
