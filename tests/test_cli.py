import json
import math

import numpy as np
import pytest

import qfluct as qf
import qfluct.cli as cli
from qfluct.errors import ConsistencyError
from qfluct.scenario import load_scenario


def cmat(rows):
    return [[[float(np.real(c)), float(np.imag(c))] for c in r] for r in rows]


@pytest.fixture
def bit_flip_scenario(tmp_path):
    s = 1 / math.sqrt(2)
    doc = {
        "schema": 1,
        "kind": "two_time",
        "initial_state": cmat([[0.75, 0], [0, 0.25]]),
        "initial_observable": cmat([[1, 0], [0, -1]]),
        "final_observable": cmat([[1, 0], [0, -1]]),
        "channel": {"kraus": [cmat([[s, 0], [0, s]]), cmat([[0, s], [s, 0]])]},
    }
    path = tmp_path / "bit_flip.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def holevo_scenario(tmp_path):
    doc = {
        "schema": 1,
        "kind": "holevo",
        "ensemble": {
            "priors": [0.5, 0.5],
            "states": [cmat([[1, 0], [0, 0]]), cmat([[0.5, 0.5], [0.5, 0.5]])],
        },
        "povm": [cmat([[1, 0], [0, 0]]), cmat([[0, 0], [0, 1]])],
    }
    path = tmp_path / "holevo.json"
    path.write_text(json.dumps(doc))
    return path


def test_verify_bit_flip_scenario(bit_flip_scenario, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["verify", str(bit_flip_scenario), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    expected = (3 / 8) * (1 + math.exp(2)) + (1 / 8) * (1 + math.exp(-2))
    assert abs(report["scalars"]["gamma"] - expected) < 1e-9
    assert report["passed"] is True
    assert len(report["input_sha256"]) == 64
    atoms = dict((round(v, 9), p) for v, p in report["atoms"])
    assert abs(atoms[-2.0] - 0.375) < 1e-12
    assert abs(atoms[0.0] - 0.5) < 1e-12
    assert abs(atoms[2.0] - 0.125) < 1e-12


def test_verify_writes_json_to_stdout_without_out(bit_flip_scenario, capsys):
    code = cli.main(["verify", str(bit_flip_scenario)])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["kind"] == "two_time"
    assert "PASS" in captured.err


def test_verify_corrupted_kraus_exit_2(tmp_path, capsys):
    s = 1 / math.sqrt(2)
    doc = {
        "schema": 1,
        "kind": "two_time",
        "initial_state": cmat([[0.75, 0], [0, 0.25]]),
        "initial_observable": cmat([[1, 0], [0, -1]]),
        "final_observable": cmat([[1, 0], [0, -1]]),
        "channel": {"kraus": [cmat([[s, 0], [0, s]]), cmat([[0, 0.9 * s], [0.9 * s, 0]])]},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path)])
    assert code == 2
    assert "completeness" in capsys.readouterr().err


def test_verify_wrong_kind_exit_2(holevo_scenario, capsys):
    assert cli.main(["verify", str(holevo_scenario)]) == 2


def test_verify_internal_failure_exit_1(bit_flip_scenario, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ConsistencyError("forced failure for the exit-code contract")

    monkeypatch.setattr(cli, "verify_ft", boom)
    assert cli.main(["verify", str(bit_flip_scenario)]) == 1


def test_jarzynski_cli(tmp_path):
    doc = {
        "schema": 1,
        "kind": "jarzynski",
        "beta": 1.0,
        "h0": cmat([[1, 0], [0, -1]]),
        "protocol": [{"hamiltonian": cmat([[2, 0], [0, -2]]), "duration": 0.0}],
    }
    path = tmp_path / "jz.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert cli.main(["jarzynski", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["scalars"]["z_ratio"] - math.cosh(2) / math.cosh(1)) < 1e-12
    assert report["passed"] is True
    # constant-H protocol through the --beta override path
    doc["protocol"] = [{"hamiltonian": cmat([[1, 0], [0, -1]]), "duration": 1.3}]
    path.write_text(json.dumps(doc))
    assert cli.main(["jarzynski", str(path), "--beta", "0.5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["scalars"]["exp_neg_beta_work"] - 1.0) < 1e-10


def test_jarzynski_overflowing_exponential_exit_2(tmp_path, capsys):
    # beta * gap = 1000 puts exp(+A_i) beyond the largest double
    gapped = cmat([[0, 0], [0, 1000]])
    doc = {
        "schema": 1,
        "kind": "jarzynski",
        "beta": 1.0,
        "h0": gapped,
        "protocol": [{"hamiltonian": gapped, "duration": 1.0}],
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["jarzynski", str(path), "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1000.0" in err


def test_verify_atoms_come_from_the_report(bit_flip_scenario, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", str(bit_flip_scenario), "--out", str(out)]) == 0
    scenario, _ = load_scenario(bit_flip_scenario)
    delta = qf.delta_a_distribution(qf.joint_distribution(scenario.two_time))
    expected = [list(a) for a in zip(delta.values.tolist(), delta.probs.tolist())]
    assert json.loads(out.read_text())["atoms"] == expected


def test_holevo_analyze_cli(holevo_scenario, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["holevo", "analyze", str(holevo_scenario), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    expected_i = 0.5 * math.log(4 / 3) + 0.25 * math.log(2 / 3) + 0.25 * math.log(2)
    assert abs(report["scalars"]["mutual_information"] - expected_i) < 1e-10
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "route_agreement" in names and "chain_g2_is_one" in names


def test_holevo_analyze_bits_flag_changes_summary_not_file(holevo_scenario, tmp_path, capsys):
    out = tmp_path / "report.json"
    cli.main(["holevo", "analyze", str(holevo_scenario), "--out", str(out)])
    nats_report = out.read_text()
    nats_err = capsys.readouterr().err
    cli.main(["holevo", "analyze", str(holevo_scenario), "--out", str(out), "--bits"])
    bits_report = out.read_text()
    bits_err = capsys.readouterr().err
    assert nats_report == bits_report  # files always stay in nats
    assert "bits" in bits_err and "bits" not in nats_err


def test_holevo_analyze_malformed_povm_exit_2(tmp_path, capsys):
    doc = {
        "schema": 1,
        "kind": "holevo",
        "ensemble": {"priors": [1.0], "states": [cmat([[1, 0], [0, 0]])]},
        "povm": [cmat([[1, 0], [0, 0.5]])],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["holevo", "analyze", str(path)]) == 2
    assert "completeness" in capsys.readouterr().err


@pytest.mark.parametrize("priors", [[], "half", [math.nan, 1.0]])
def test_holevo_analyze_malformed_priors_exit_2(tmp_path, capsys, priors):
    doc = {
        "schema": 1,
        "kind": "holevo",
        "ensemble": {"priors": priors, "states": [cmat([[1, 0], [0, 0]]), cmat([[0, 0], [0, 1]])]},
        "povm": [cmat([[1, 0], [0, 0]]), cmat([[0, 0], [0, 1]])],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["holevo", "analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: priors")


def test_holevo_random_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["holevo", "random", "--dim", "2", "--words", "2", "--outcomes", "3",
            "--trials", "6", "--seed", "42"]
    assert cli.main(args + ["--csv", str(a)]) == 0
    assert cli.main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("#") and "v1" in lines[0]
    assert lines[1].split(",")[0] == "trial"
    assert len(lines) == 2 + 6
    for row in lines[2:]:
        assert row.endswith(",1")  # all rows pass


def test_holevo_random_dim_one_carries_no_information(tmp_path):
    path = tmp_path / "d1.csv"
    assert cli.main(["holevo", "random", "--dim", "1", "--words", "2", "--outcomes", "2",
                     "--trials", "4", "--seed", "7", "--csv", str(path)]) == 0
    for row in path.read_text().splitlines()[2:]:
        fields = row.split(",")
        assert abs(float(fields[6])) < 1e-12   # mutual information
        assert abs(float(fields[7])) < 1e-12   # chi
        assert abs(float(fields[8]) - 1.0) < 1e-9  # gamma


def test_holevo_optimize_cli(holevo_scenario, tmp_path):
    out = tmp_path / "opt.json"
    code = cli.main([
        "holevo", "optimize", str(holevo_scenario),
        "--outcomes", "2", "--restarts", "2", "--iters", "60",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    achieved = report["scalars"]["achieved_mutual_information"]
    baseline = report["scalars"]["scenario_povm_mutual_information"]
    assert achieved >= baseline - 1e-12
    assert len(report["optimized_povm"]) == 2
    # serialized POVM is valid and sums to identity
    total = np.zeros((2, 2), dtype=complex)
    for element in report["optimized_povm"]:
        total += np.array([[complex(a, b) for a, b in row] for row in element])
    assert np.abs(total - np.eye(2)).max() < 1e-10


def test_missing_file_exit_2(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path / "nope.json")]) == 2


def test_shipped_sample_scenarios_pass(tmp_path):
    from pathlib import Path

    scenarios = Path(__file__).parent.parent / "scenarios"
    commands = {
        "bit_flip_two_time.json": ["verify"],
        "sudden_quench_jarzynski.json": ["jarzynski"],
        "zero_plus_holevo.json": ["holevo", "analyze"],
        "orthogonal_holevo.json": ["holevo", "analyze"],
    }
    for name, command in commands.items():
        out = tmp_path / (name + ".report.json")
        code = cli.main(command + [str(scenarios / name), "--out", str(out)])
        assert code == 0, name
        assert json.loads(out.read_text())["passed"] is True
    # the orthogonal ensemble saturates the bound exactly
    report = json.loads((tmp_path / "orthogonal_holevo.json.report.json").read_text())
    assert abs(report["scalars"]["mutual_information"] - math.log(2)) < 1e-10
    assert abs(report["scalars"]["chi"] - math.log(2)) < 1e-10
    assert abs(report["scalars"]["gamma"] - 1.0) < 1e-10
