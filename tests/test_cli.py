import argparse
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qfluct as qf
import qfluct.cli as cli
from qfluct.errors import ConsistencyError
from qfluct.scenario import load_scenario
from qfluct.ttm import CHECK_TOL, Check

SCENARIOS = Path(__file__).parent.parent / "scenarios"


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


@pytest.mark.parametrize(
    "beta, duration, flags, words",
    [
        ("1.0", "1.0", ["--beta", "inf"], "beta must be positive and finite"),
        ("1.0", "1.0", ["--beta", "1e308"], "beta = 1e+308"),
        ("Infinity", "1.0", [], "beta must be positive and finite"),
        ("NaN", "1.0", [], "beta must be positive and finite"),
        ("1.0", "1e308", [], "step of duration 1e+308"),
        ("1.0", "Infinity", [], "step 0 duration inf is not finite"),
    ],
)
def test_jarzynski_non_finite_beta_or_duration_exit_2(tmp_path, capsys, beta, duration, flags, words):
    # Python's json reads Infinity and NaN; each must end as a typed error
    # that names beta or the step, not a numpy RuntimeWarning
    text = json.dumps(
        {
            "schema": 1,
            "kind": "jarzynski",
            "beta": "BETA",
            "h0": cmat([[1, 0], [0, -1]]),
            "protocol": [{"hamiltonian": cmat([[2, 0], [0, -2]]), "duration": "DURATION"}],
        }
    )
    path = tmp_path / "jz.json"
    path.write_text(text.replace('"BETA"', beta).replace('"DURATION"', duration))
    assert cli.main(["jarzynski", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and words in err


def jarzynski_doc():
    return {
        "schema": 1,
        "kind": "jarzynski",
        "beta": 1.0,
        "h0": cmat([[1, 0], [0, -1]]),
        "protocol": [{"hamiltonian": cmat([[2, 0], [0, -2]]), "duration": 0.5}],
    }


@pytest.mark.parametrize(
    "field, words",
    [
        ("beta", "beta must be a positive number, got True"),
        ("duration", "protocol[0].duration must be a number"),
        ("seed", "seed must be an integer"),
        ("entry", "h0: entry (0,0) must be a two-element [re, im] array of numbers"),
        ("tolerance", "tolerance degeneracy_tol must be a strictly positive finite number, got True"),
        ("schema", "unsupported schema version True"),
    ],
)
def test_jarzynski_rejects_json_booleans_exit_2(tmp_path, capsys, field, words):
    # bool subclasses int, so true would otherwise read as the number 1
    doc = jarzynski_doc()
    if field == "beta":
        doc["beta"] = True
    elif field == "duration":
        doc["protocol"][0]["duration"] = True
    elif field == "seed":
        doc["seed"] = True
    elif field == "entry":
        doc["h0"][0][0] = [True, False]
    elif field == "tolerance":
        doc["tolerances"] = {"degeneracy_tol": True}
    else:
        doc["schema"] = True
    path = tmp_path / "jz.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["jarzynski", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and words in err


def test_jarzynski_mismatched_h0_dimension_exit_2(tmp_path, capsys):
    doc = jarzynski_doc()
    doc["h0"] = cmat(np.eye(3))
    path = tmp_path / "jz.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["jarzynski", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "protocol dimensions disagree: [2, 3]" in err


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


def test_holevo_analyze_priors_of_mixed_types_exit_2(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "orthogonal_holevo.json").read_text())
    doc["ensemble"]["priors"] = [0.5, "x"]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["holevo", "analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: priors must be a non-empty flat list of real numbers, got [0.5, 'x']\n"


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
        "--outcomes", "2", "--seed", "5", "--out", str(out),
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


def test_holevo_optimize_is_byte_deterministic(tmp_path):
    # the batched ascent and its first-best choice add no run-to-run variation
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        argv = ["holevo", "optimize", str(SCENARIOS / "zero_plus_holevo.json"), "--seed", "7", "--out", str(out)]
        assert cli.main(argv) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_holevo_optimize_zero_outcomes_exit_2(holevo_scenario, capsys):
    # --outcomes 0 is an explicit request, not a fallback to the scenario's K
    assert cli.main(["holevo", "optimize", str(holevo_scenario), "--outcomes", "0"]) == 2
    assert "at least 2 outcomes" in capsys.readouterr().err


def test_holevo_analyze_summary_prints_no_negative_zero(tmp_path, capsys):
    # gamma is exactly 1 for the orthogonal ensemble, so -ln(gamma) is -0.0
    from pathlib import Path

    scenario = Path(__file__).parent.parent / "scenarios" / "orthogonal_holevo.json"
    for flags in ([], ["--bits"]):
        assert cli.main(["holevo", "analyze", str(scenario), "--out", str(tmp_path / "r.json")] + flags) == 0
        err = capsys.readouterr().err
        assert "-ln(gamma) = 0 " in err
        assert "-0 " not in err


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


def _library_checks(command: str, path: Path):
    """The checks of the library report that the command serializes."""
    scenario, _ = load_scenario(path)
    tol = scenario.tolerances
    if command == "verify":
        return qf.verify_ft(scenario.two_time, tolerances=tol).checks
    if command == "jarzynski":
        return qf.jarzynski_scenario(
            scenario.jarzynski_h0, scenario.jarzynski_protocol, scenario.jarzynski_beta, tolerances=tol
        )[1].checks
    if command == "analyze":
        return qf.analyze(scenario.holevo_instance, tol=tol, strict=False).checks
    ensemble = scenario.holevo_instance.ensemble
    povm, achieved = qf.optimize_measurement(ensemble, scenario.holevo_instance.povm.n_outcomes, 1, tol)
    report = qf.analyze(qf.CqChannelInstance.create(ensemble, povm), tol=tol, strict=False)
    return (*report.checks, Check.at_most("achieved_le_chi", achieved, report.chi + CHECK_TOL))


COMMANDS = {
    "verify": ["verify"],
    "jarzynski": ["jarzynski"],
    "analyze": ["holevo", "analyze"],
    "optimize": ["holevo", "optimize"],
}


@pytest.mark.parametrize(
    "command, name",
    [
        ("verify", "bit_flip_two_time"),
        ("jarzynski", "sudden_quench_jarzynski"),
        ("analyze", "zero_plus_holevo"),
        ("analyze", "orthogonal_holevo"),
        ("optimize", "zero_plus_holevo"),
    ],
)
def test_report_checks_are_the_library_checks(command, name, tmp_path):
    path = SCENARIOS / f"{name}.json"
    out = tmp_path / "report.json"
    seed = ["--seed", "1"] if command == "optimize" else []
    code = cli.main(COMMANDS[command] + [str(path), *seed, "--out", str(out)])
    doc = json.loads(out.read_text())
    expected = _library_checks(command, path)
    assert doc["checks"] == [dataclasses.asdict(c) for c in expected]
    assert doc["passed"] is (code == 0)
    if command == "jarzynski":
        assert doc["checks"][-1]["name"] == "jensen_bound"
    if command == "optimize":
        assert doc["checks"][-1]["name"] == "achieved_le_chi"


@pytest.mark.parametrize(
    "command, name, target",
    [
        ("verify", "bit_flip_two_time", "verify_ft"),
        ("jarzynski", "sudden_quench_jarzynski", "jarzynski_scenario"),
        ("analyze", "zero_plus_holevo", "analyze"),
    ],
)
def test_a_failed_last_check_fails_the_document_and_the_exit_code(command, name, target, tmp_path, monkeypatch):
    def fail_last(report):
        *kept, last = report.checks
        return dataclasses.replace(report, checks=(*kept, dataclasses.replace(last, passed=False)))

    real = getattr(cli, target)

    def failing(*args, **kwargs):
        result = real(*args, **kwargs)
        return (result[0], fail_last(result[1])) if isinstance(result, tuple) else fail_last(result)

    monkeypatch.setattr(cli, target, failing)
    out = tmp_path / "report.json"
    assert cli.main(COMMANDS[command] + [str(SCENARIOS / f"{name}.json"), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["checks"][-1]["passed"] is False
    assert doc["passed"] is False


@pytest.mark.parametrize(
    "argv, name, message",
    [
        (["verify"], "zero_plus_holevo", "verify expects a two_time scenario, got kind 'holevo'"),
        (["jarzynski"], "bit_flip_two_time", "jarzynski expects a jarzynski scenario, got kind 'two_time'"),
        (["holevo", "analyze"], "sudden_quench_jarzynski",
         "holevo analyze expects a holevo scenario, got kind 'jarzynski'"),
        (["holevo", "optimize"], "bit_flip_two_time",
         "holevo optimize expects a holevo scenario, got kind 'two_time'"),
    ],
)
def test_kind_mismatch_exit_2_names_both_kinds(argv, name, message, capsys):
    assert cli.main(argv + [str(SCENARIOS / f"{name}.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


BIG = "1" + "0" * 400  # a JSON integer beyond the largest double


@pytest.mark.parametrize(
    "site, words",
    [
        ("beta", "scenario: beta"),
        ("duration", "protocol[0].duration"),
        ("entry", "h0: entry (0,0)"),
        ("tolerance", "tolerance degeneracy_tol"),
        ("tol-pack", "tolerance degeneracy_tol"),
    ],
)
def test_jarzynski_integer_beyond_double_range_exit_2(tmp_path, capsys, site, words):
    doc = jarzynski_doc()
    flags = []
    if site == "beta":
        doc["beta"] = "BIG"
    elif site == "duration":
        doc["protocol"][0]["duration"] = "BIG"
    elif site == "entry":
        doc["h0"][0][0] = ["BIG", 0.0]
    elif site == "tolerance":
        doc["tolerances"] = {"degeneracy_tol": "BIG"}
    else:
        pack = tmp_path / "pack.json"
        pack.write_text(f'{{"degeneracy_tol": {BIG}}}')
        flags = ["--tol-pack", str(pack)]
    path = tmp_path / "jz.json"
    path.write_text(json.dumps(doc).replace('"BIG"', BIG))
    assert cli.main(["jarzynski", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and words in err and "double range" in err


def _subcommands(parser, prefix=()):
    """Each leaf subcommand of the parser, with its parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, (*prefix, name))
            return
    yield " ".join(prefix), parser


def test_each_command_takes_only_the_flags_it_reads():
    options = {
        name: sorted(s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, parser in _subcommands(cli.build_parser())
    }
    assert options == {
        "verify": ["--out", "--tol-pack"],
        "jarzynski": ["--beta", "--out", "--tol-pack"],
        "holevo analyze": ["--bits", "--out", "--tol-pack"],
        "holevo random": [
            "--csv", "--dim", "--outcomes", "--seed", "--state-kind", "--tol-pack", "--trials", "--words"
        ],
        "holevo optimize": ["--bits", "--out", "--outcomes", "--seed", "--tol-pack"],
    }


RANDOM = ["holevo", "random", "--dim", "2", "--words", "2", "--outcomes", "2", "--trials", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "s.json", "--seed", "1"],
        ["verify", "s.json", "--bits"],
        ["jarzynski", "s.json", "--seed", "1"],
        ["jarzynski", "s.json", "--bits"],
        ["holevo", "analyze", "s.json", "--seed", "1"],
        [*RANDOM, "--out", "5"],
        [*RANDOM, "--bits"],
    ],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    # "--out 5" is not taken as a prefix of --outcomes
    assert "unrecognized arguments" in capsys.readouterr().err


def test_csv_header_is_the_readme_header():
    readme = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    at = readme.index(cli.CSV_VERSION_LINE)
    assert readme[at + 1] == cli.CSV_HEADER


def test_holevo_random_rows_are_the_library_reports(capsys):
    assert cli.main(["holevo", "random", "--dim", "2", "--words", "2", "--outcomes", "3",
                     "--trials", "3", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[1].split(",")
    scalars = header[6:15]
    assert scalars == ["mutual_information", "chi", "gamma", "neg_log_gamma", "bound_slack", "g1", "g2",
                       "equality_residual", "route_error"]
    for i, line in enumerate(lines[2:]):
        report = qf.analyze(qf.random_instance(2, 2, 3, 7 + i, "mix"), strict=False)
        owners = {"g1": report.chain, "g2": report.chain}
        row = line.split(",")
        assert row[:6] == [str(i), str(7 + i), "2", "2", "3", "mix"]
        assert row[6:15] == [repr(float(getattr(owners.get(name, report), name))) for name in scalars]
    assert len(lines) == 2 + 3


@pytest.mark.parametrize("site", ["random flag", "optimize flag", "optimize scenario"])
def test_a_negative_seed_exit_2_names_the_seed(site, tmp_path, capsys):
    scenario = SCENARIOS / "zero_plus_holevo.json"
    if site == "random flag":
        argv = ["holevo", "random", "--dim", "2", "--words", "2", "--outcomes", "2", "--trials", "2",
                "--seed", "-3"]
        seed = -3
    elif site == "optimize flag":
        argv = ["holevo", "optimize", str(scenario), "--seed", "-1"]
        seed = -1
    else:
        doc = json.loads(scenario.read_text())
        doc["seed"] = -1
        path = tmp_path / "negative_seed.json"
        path.write_text(json.dumps(doc))
        argv = ["holevo", "optimize", str(path)]
        seed = -1
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be a non-negative integer, got {seed}\n"


def test_a_channel_with_both_kraus_and_protocol_exit_2(bit_flip_scenario, tmp_path, capsys):
    doc = json.loads(bit_flip_scenario.read_text())
    doc["channel"]["protocol"] = [{"hamiltonian": cmat([[1, 0], [0, -1]]), "duration": 0.4}]
    path = tmp_path / "both.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    assert "channel: needs exactly one of 'kraus' or 'protocol'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [5, None, {"0": [[[1, 0]]]}])
@pytest.mark.parametrize(
    "field, argv",
    [
        ("channel.kraus", ["verify"]),
        ("povm", ["holevo", "analyze"]),
        ("ensemble.states", ["holevo", "analyze"]),
    ],
)
def test_a_matrix_list_field_that_is_not_an_array_exit_2(field, argv, value, tmp_path, capsys):
    scenario = "bit_flip_two_time.json" if field == "channel.kraus" else "orthogonal_holevo.json"
    doc = json.loads((SCENARIOS / scenario).read_text())
    *parents, key = field.split(".")
    owner = doc
    for name in parents:
        owner = owner[name]
    owner[key] = value
    path = tmp_path / "not_an_array.json"
    path.write_text(json.dumps(doc))
    assert cli.main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field}: expected an array of matrices\n"


def test_a_report_lists_the_three_tolerances(bit_flip_scenario, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", str(bit_flip_scenario), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerances"] == {
        "degeneracy_tol": 1e-9, "rank_tol": 1e-12, "prob_floor": 1e-12,
    }


@pytest.mark.parametrize("site", ["scenario", "tol-pack"])
def test_a_removed_tolerance_field_is_unknown_exit_2(site, bit_flip_scenario, tmp_path, capsys):
    flags = []
    if site == "scenario":
        doc = json.loads(bit_flip_scenario.read_text())
        doc["tolerances"] = {"psd_tol": 1e-10}
        bit_flip_scenario.write_text(json.dumps(doc))
    else:
        pack = tmp_path / "pack.json"
        pack.write_text('{"psd_tol": 1e-10}')
        flags = ["--tol-pack", str(pack)]
    assert cli.main(["verify", str(bit_flip_scenario), *flags]) == 2
    assert "unknown tolerance fields: ['psd_tol']" in capsys.readouterr().err
