import json
import math

import numpy as np
import pytest

import qfluct as qf
from qfluct.errors import ValidationError
from qfluct.scenario import (
    load_scenario,
    load_tolerances,
    matrix_from_json,
    matrix_to_json,
    parse_scenario,
)


def cmat(rows):
    return [[[float(np.real(c)), float(np.imag(c))] for c in r] for r in rows]


def two_time_doc():
    s = 1 / math.sqrt(2)
    return {
        "schema": 1,
        "kind": "two_time",
        "initial_state": cmat([[0.75, 0], [0, 0.25]]),
        "initial_observable": cmat([[1, 0], [0, -1]]),
        "final_observable": cmat([[1, 0], [0, -1]]),
        "channel": {"kraus": [cmat([[s, 0], [0, s]]), cmat([[0, s], [s, 0]])]},
    }


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_json(matrix_to_json(m), "m")
    assert np.abs(back - m).max() < 1e-15


def test_matrix_round_trip_through_json_text():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    text = json.dumps(matrix_to_json(m))
    back = matrix_from_json(json.loads(text), "m")
    assert np.array_equal(back, m)  # repr round-trip is exact


def test_parse_two_time_scenario():
    scenario = parse_scenario(two_time_doc())
    assert scenario.kind == "two_time"
    report = qf.verify_ft(scenario.two_time)
    assert report.passed


def test_parse_rejects_bad_schema_and_kind():
    doc = two_time_doc()
    doc["schema"] = 2
    with pytest.raises(ValidationError, match="schema"):
        parse_scenario(doc)
    doc = two_time_doc()
    doc["kind"] = "bogus"
    with pytest.raises(ValidationError, match="unknown kind"):
        parse_scenario(doc)


def test_parse_rejects_malformed_matrix():
    doc = two_time_doc()
    doc["initial_state"] = [[1.0, 0.0], [0.0, 1.0]]  # not [re, im] pairs
    with pytest.raises(ValidationError, match="re, im"):
        parse_scenario(doc)
    doc = two_time_doc()
    doc["initial_state"] = cmat([[1, 0, 0], [0, 0, 0]])  # not square
    with pytest.raises(ValidationError, match="square"):
        parse_scenario(doc)


def test_parse_rejects_missing_fields():
    doc = two_time_doc()
    del doc["channel"]
    with pytest.raises(ValidationError, match="channel"):
        parse_scenario(doc)


def test_parse_protocol_channel():
    doc = two_time_doc()
    doc["channel"] = {
        "protocol": [{"hamiltonian": cmat([[1, 0], [0, -1]]), "duration": 0.4}]
    }
    scenario = parse_scenario(doc)
    u = scenario.two_time.channel.kraus_ops[0]
    assert np.abs(u - np.diag(np.exp(-1j * np.array([1.0, -1.0]) * 0.4))).max() < 1e-12


def test_parse_rejects_a_channel_with_both_kraus_and_protocol():
    doc = two_time_doc()
    doc["channel"]["protocol"] = [{"hamiltonian": cmat([[1, 0], [0, -1]]), "duration": 0.4}]
    with pytest.raises(ValidationError, match="channel: needs exactly one of 'kraus' or 'protocol'"):
        parse_scenario(doc)
    doc["channel"] = {}
    with pytest.raises(ValidationError, match="channel: needs exactly one of 'kraus' or 'protocol'"):
        parse_scenario(doc)


def test_scenario_tolerance_overrides():
    doc = two_time_doc()
    doc["tolerances"] = {"degeneracy_tol": 1e-6}
    scenario = parse_scenario(doc)
    assert scenario.tolerances.degeneracy_tol == 1e-6
    assert scenario.tolerances.rank_tol == qf.DEFAULT_TOLS.rank_tol


def test_load_scenario_and_tolerance_pack(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(two_time_doc()))
    scenario, digest = load_scenario(path)
    assert scenario.kind == "two_time"
    assert len(digest) == 64

    pack = tmp_path / "tols.json"
    pack.write_text(json.dumps({"prob_floor": 1e-10}))
    tols = load_tolerances(pack)
    assert tols.prob_floor == 1e-10

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_scenario(bad)


def test_parse_holevo_scenario_and_povm_validation():
    doc = {
        "schema": 1,
        "kind": "holevo",
        "ensemble": {
            "priors": [0.5, 0.5],
            "states": [cmat([[1, 0], [0, 0]]), cmat([[0, 0], [0, 1]])],
        },
        "povm": [cmat([[1, 0], [0, 0]]), cmat([[0, 0], [0, 0.5]])],
    }
    with pytest.raises(ValidationError, match="completeness"):
        parse_scenario(doc)
    doc["povm"][1] = cmat([[0, 0], [0, 1]])
    scenario = parse_scenario(doc)
    assert scenario.holevo_instance.ensemble.n_words == 2
