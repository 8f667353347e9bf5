"""Scenario files and reports.

Scenarios are JSON documents with a versioned "schema" field and a "kind"
of two_time, jarzynski or holevo.  Complex matrices are nested row-major
arrays of two-element [re, im] pairs; no string-encoded complex forms.
Reports echo a hash of the input, every scalar output, distribution atoms,
and one pass/fail record per assertion with the tolerance used.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .channel import EvolutionProtocol, KrausChannel, unitary_from_protocol
from .errors import ValidationError
from .holevo import CqChannelInstance, Ensemble
from .measurement import POVM, observable_from_hermitian
from .operator_core import DEFAULT_TOLS, Tolerances, _as_float, _is_number
from .ttm import Check, TwoTimeProtocol

SCHEMA_VERSION = 1
SCENARIO_KINDS = ("two_time", "jarzynski", "holevo")


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(data: Any, what: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{what}: expected a non-empty nested array")
    rows = []
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != len(data):
            raise ValidationError(f"{what}: row {r} does not make the matrix square")
        entries = []
        for c, cell in enumerate(row):
            where = f"{what}: entry ({r},{c})"
            if not isinstance(cell, list) or len(cell) != 2 or not all(_is_number(x) for x in cell):
                raise ValidationError(f"{where} must be a two-element [re, im] array of numbers")
            entries.append(complex(_as_float(cell[0], where), _as_float(cell[1], where)))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _require(data: dict, key: str, what: str) -> Any:
    if key not in data:
        raise ValidationError(f"{what}: missing required field {key!r}")
    return data[key]


def _matrices(data: Any, what: str) -> list[np.ndarray]:
    """A JSON array of matrices, entry i named what[i] in errors."""
    if not isinstance(data, list):
        raise ValidationError(f"{what}: expected an array of matrices")
    return [matrix_from_json(m, f"{what}[{i}]") for i, m in enumerate(data)]


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: the validated domain objects of its kind."""

    kind: str
    seed: int | None
    tolerances: Tolerances
    two_time: TwoTimeProtocol | None = None
    jarzynski_h0: np.ndarray | None = None
    jarzynski_protocol: EvolutionProtocol | None = None
    jarzynski_beta: float | None = None
    holevo_instance: CqChannelInstance | None = None


def _parse_channel(data: Any) -> KrausChannel:
    if not isinstance(data, dict):
        raise ValidationError("channel: expected an object with 'kraus' or 'protocol'")
    if ("kraus" in data) == ("protocol" in data):
        raise ValidationError("channel: needs exactly one of 'kraus' or 'protocol'")
    if "kraus" in data:
        return KrausChannel.create(_matrices(data["kraus"], "channel.kraus"))
    return unitary_from_protocol(_parse_protocol(data["protocol"]))


def _parse_protocol(data: Any) -> EvolutionProtocol:
    if not isinstance(data, list) or not data:
        raise ValidationError("protocol: expected a non-empty list of steps")
    steps = []
    for i, step in enumerate(data):
        if not isinstance(step, dict):
            raise ValidationError(f"protocol[{i}]: expected an object")
        h = matrix_from_json(_require(step, "hamiltonian", f"protocol[{i}]"), f"protocol[{i}].hamiltonian")
        duration = _require(step, "duration", f"protocol[{i}]")
        if not _is_number(duration):
            raise ValidationError(f"protocol[{i}].duration must be a number")
        steps.append((h, _as_float(duration, f"protocol[{i}].duration")))
    return EvolutionProtocol.create(steps)


def parse_scenario(document: dict, tol_override: Tolerances | None = None) -> Scenario:
    """Validate a scenario document and build its domain objects."""
    if not isinstance(document, dict):
        raise ValidationError("scenario: top level must be a JSON object")
    schema = _require(document, "schema", "scenario")
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:
        raise ValidationError(f"scenario: unsupported schema version {schema!r}")
    kind = _require(document, "kind", "scenario")
    if kind not in SCENARIO_KINDS:
        raise ValidationError(f"scenario: unknown kind {kind!r}; expected one of {SCENARIO_KINDS}")
    seed = document.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ValidationError("scenario: seed must be an integer")
    if tol_override is not None:
        tol = tol_override
    else:
        overrides = document.get("tolerances", {})
        if not isinstance(overrides, dict):
            raise ValidationError("scenario: tolerances must be an object")
        tol = Tolerances.from_dict(overrides) if overrides else DEFAULT_TOLS

    if kind == "two_time":
        rho = matrix_from_json(_require(document, "initial_state", "scenario"), "initial_state")
        a_i = matrix_from_json(_require(document, "initial_observable", "scenario"), "initial_observable")
        a_f = matrix_from_json(_require(document, "final_observable", "scenario"), "final_observable")
        channel = _parse_channel(_require(document, "channel", "scenario"))
        protocol = TwoTimeProtocol.create(
            rho,
            observable_from_hermitian(a_i, tol),
            channel,
            observable_from_hermitian(a_f, tol),
        )
        return Scenario(kind=kind, seed=seed, tolerances=tol, two_time=protocol)

    if kind == "jarzynski":
        h0 = matrix_from_json(_require(document, "h0", "scenario"), "h0")
        protocol = _parse_protocol(_require(document, "protocol", "scenario"))
        beta = _require(document, "beta", "scenario")
        if not _is_number(beta) or beta <= 0:
            raise ValidationError(f"scenario: beta must be a positive number, got {beta!r}")
        return Scenario(
            kind=kind, seed=seed, tolerances=tol, jarzynski_h0=h0, jarzynski_protocol=protocol,
            jarzynski_beta=_as_float(beta, "scenario: beta"),
        )

    ensemble_doc = _require(document, "ensemble", "scenario")
    if not isinstance(ensemble_doc, dict):
        raise ValidationError("scenario: ensemble must be an object")
    priors = _require(ensemble_doc, "priors", "ensemble")
    states = _matrices(_require(ensemble_doc, "states", "ensemble"), "ensemble.states")
    ensemble = Ensemble.create(priors, states, tol)
    povm = POVM.create(_matrices(_require(document, "povm", "scenario"), "povm"))
    instance = CqChannelInstance.create(ensemble, povm)
    return Scenario(kind=kind, seed=seed, tolerances=tol, holevo_instance=instance)


def load_scenario(path: str | Path, tol_override: Tolerances | None = None) -> tuple[Scenario, str]:
    """Read, hash and parse a scenario file.  Returns (scenario, sha256)."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario {path}: invalid JSON ({exc})") from exc
    return parse_scenario(document, tol_override), digest


def load_tolerances(path: str | Path) -> Tolerances:
    """Read a tolerance-override JSON file."""
    try:
        overrides = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"tolerance pack {path}: invalid JSON ({exc})") from exc
    if not isinstance(overrides, dict):
        raise ValidationError("tolerance pack: top level must be a JSON object")
    return Tolerances.from_dict(overrides)


def report_document(
    kind: str,
    input_sha256: str | None,
    tolerances: Tolerances,
    scalars: dict[str, float],
    checks: tuple[Check, ...],
    atoms: tuple[tuple[float, float], ...],
    extras: dict | None = None,
    seed: int | None = None,
) -> dict:
    """Assemble the machine-readable report document."""
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "input_sha256": input_sha256,
        "seed": seed,
        "tolerances": tolerances.to_dict(),
        "scalars": {k: float(v) for k, v in scalars.items()},
        "checks": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
        "atoms": [[float(v), float(p)] for v, p in atoms],
    }
    if extras:
        doc.update(extras)
    return doc


def write_report(doc: dict, out: str | Path | None) -> str:
    """Serialize the report; write to the path when given.  Returns the text."""
    text = json.dumps(doc, indent=2)
    if out is not None:
        Path(out).write_text(text + "\n")
    return text
