"""Command-line front end.

Commands: verify, jarzynski, holevo analyze | random | optimize.
Exit codes: 0 success, 1 assertion failure, 2 parse/validation error.
Reports are JSON (nats); holevo random emits CSV.  The --bits flag
converts the stderr summary only; files always stay in nats.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import __version__
from .errors import ConsistencyError, QfluctError, ValidationError
from .holevo import (
    STATE_KINDS,
    analyze,
    mutual_information,
    optimize_measurement,
    random_instance,
    CqChannelInstance,
)
from .operator_core import DEFAULT_TOLS, Tolerances
from .scenario import (
    SCHEMA_VERSION,
    load_scenario,
    load_tolerances,
    matrix_to_json,
    report_document,
    write_report,
)
from .ttm import CHECK_TOL, Check, jarzynski_scenario, verify_ft

CSV_HEADER = (
    "trial,seed,dim,words,outcomes,state_kind,mutual_information,chi,gamma,"
    "neg_log_gamma,bound_slack,g1,g2,equality_residual,route_error,passed"
)
CSV_VERSION_LINE = "# qfluct-holevo-random-csv v1"

LN2 = math.log(2.0)


def _summary(lines: list[str]) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def _display(value: float, bits: bool) -> str:
    value += 0.0  # -0.0 + 0.0 is +0.0, so a zero never prints as "-0"
    return f"{value / LN2:.9g} bits" if bits else f"{value:.9g} nats"


def _tolerances(args) -> Tolerances | None:
    if args.tol_pack:
        return load_tolerances(args.tol_pack)
    return None


def _emit(doc: dict, args) -> None:
    text = write_report(doc, args.out)
    if args.out is None:
        print(text)


def _check_dicts(checks) -> list[dict]:
    return [dataclasses.asdict(c) for c in checks]


def cmd_verify(args) -> int:
    scenario, digest = load_scenario(args.scenario, _tolerances(args))
    if scenario.kind != "two_time":
        raise ValidationError(f"verify expects a two_time scenario, got kind {scenario.kind!r}")
    report = verify_ft(scenario.two_time, tolerances=scenario.tolerances)
    doc = report_document(
        kind="two_time",
        input_sha256=digest,
        tolerances=scenario.tolerances,
        scalars={
            "lhs": report.lhs,
            "gamma": report.gamma,
            "mean_delta_a": report.mean_delta_a,
            "jensen_slack": report.jensen_slack,
            "identity_error": report.identity_error,
            "max_violation": report.max_violation,
        },
        checks=_check_dicts(report.checks),
        atoms=list(report.atoms),
        seed=scenario.seed,
    )
    _emit(doc, args)
    _summary(
        [
            f"<exp(-delta_a)> = {report.lhs:.12g}, gamma = {report.gamma:.12g}",
            f"mean delta_a = {report.mean_delta_a:.12g}, jensen slack = {report.jensen_slack:.3e}",
            "PASS" if report.passed else "FAIL",
        ]
    )
    return 0 if report.passed else 1


def cmd_jarzynski(args) -> int:
    scenario, digest = load_scenario(args.scenario, _tolerances(args))
    if scenario.kind != "jarzynski":
        raise ValidationError(f"jarzynski expects a jarzynski scenario, got kind {scenario.kind!r}")
    beta = args.beta if args.beta is not None else scenario.jarzynski_beta
    _, report = jarzynski_scenario(
        scenario.jarzynski_h0, scenario.jarzynski_protocol, beta, tolerances=scenario.tolerances
    )
    doc = report_document(
        kind="jarzynski",
        input_sha256=digest,
        tolerances=scenario.tolerances,
        scalars={
            "beta": report.beta,
            "z0": report.z0,
            "z_tau": report.z_tau,
            "z_ratio": report.z_ratio,
            "delta_f": report.delta_f,
            "mean_work": report.mean_work,
            "exp_neg_beta_work": report.exp_neg_beta_work,
            "gamma": report.gamma,
        },
        checks=_check_dicts(report.checks),
        atoms=list(report.ft.atoms),
        seed=scenario.seed,
    )
    _emit(doc, args)
    _summary(
        [
            f"<exp(-beta W)> = {report.exp_neg_beta_work:.12g}, Z_tau/Z_0 = {report.z_ratio:.12g}",
            f"<W> = {report.mean_work:.12g}, dF = {report.delta_f:.12g}",
            "PASS" if report.passed else "FAIL",
        ]
    )
    return 0 if report.passed else 1


def _holevo_scalars(report) -> dict:
    return {
        "mutual_information": report.mutual_information,
        "chi": report.chi,
        "shannon": report.shannon,
        "conditional_term": report.conditional_term,
        "gamma": report.gamma,
        "gamma_distribution": report.gamma_distribution,
        "gamma_trace": report.gamma_trace,
        "neg_log_gamma": report.neg_log_gamma,
        "mean_delta_a": report.mean_delta_a,
        "bound_slack": report.bound_slack,
        "g1": report.chain.g1,
        "g2": report.chain.g2,
        "equality_residual": report.equality_residual,
        "route_error": report.route_error,
    }


def _holevo_summary(report, bits: bool) -> list[str]:
    return [
        f"I = {_display(report.mutual_information, bits)}, chi = {_display(report.chi, bits)}",
        f"-ln(gamma) = {_display(report.neg_log_gamma, bits)}, "
        f"bound slack = {_display(report.bound_slack, bits)}",
        f"chain: gamma={report.gamma:.12g} <= g1={report.chain.g1:.12g} "
        f"<= g2={report.chain.g2:.12g}",
        f"equality residual = {report.equality_residual:.3e}",
        "PASS" if report.passed else "FAIL",
    ]


def cmd_holevo_analyze(args) -> int:
    scenario, digest = load_scenario(args.scenario, _tolerances(args))
    if scenario.kind != "holevo":
        raise ValidationError(f"holevo analyze expects a holevo scenario, got kind {scenario.kind!r}")
    report = analyze(scenario.holevo_instance, tol=scenario.tolerances, strict=False)
    doc = report_document(
        kind="holevo",
        input_sha256=digest,
        tolerances=scenario.tolerances,
        scalars=_holevo_scalars(report),
        checks=_check_dicts(report.checks),
        atoms=list(report.atoms),
        seed=scenario.seed,
    )
    _emit(doc, args)
    _summary(_holevo_summary(report, args.bits))
    return 0 if report.passed else 1


def cmd_holevo_random(args) -> int:
    if min(args.dim, args.words, args.outcomes, args.trials) < 1:
        raise ValidationError("--dim, --words, --outcomes and --trials must be positive")
    tol = _tolerances(args) or DEFAULT_TOLS
    base_seed = args.seed if args.seed is not None else 0
    rows = [CSV_VERSION_LINE, CSV_HEADER]
    all_passed = True
    for trial in range(args.trials):
        seed = base_seed + trial
        inst = random_instance(args.dim, args.words, args.outcomes, seed, args.state_kind, tol)
        report = analyze(inst, tol=tol, strict=False)
        all_passed = all_passed and report.passed
        rows.append(
            ",".join(
                [
                    str(trial),
                    str(seed),
                    str(args.dim),
                    str(args.words),
                    str(args.outcomes),
                    args.state_kind,
                    repr(float(report.mutual_information)),
                    repr(float(report.chi)),
                    repr(float(report.gamma)),
                    repr(float(report.neg_log_gamma)),
                    repr(float(report.bound_slack)),
                    repr(float(report.chain.g1)),
                    repr(float(report.chain.g2)),
                    repr(float(report.equality_residual)),
                    repr(float(report.route_error)),
                    str(int(report.passed)),
                ]
            )
        )
    text = "\n".join(rows) + "\n"
    if args.csv:
        Path(args.csv).write_text(text)
    else:
        print(text, end="")
    _summary([f"{args.trials} trials, {'all passed' if all_passed else 'FAILURES present'}"])
    return 0 if all_passed else 1


def cmd_holevo_optimize(args) -> int:
    scenario, digest = load_scenario(args.scenario, _tolerances(args))
    if scenario.kind != "holevo":
        raise ValidationError(f"holevo optimize expects a holevo scenario, got kind {scenario.kind!r}")
    ensemble = scenario.holevo_instance.ensemble
    outcomes = args.outcomes if args.outcomes is not None else scenario.holevo_instance.povm.n_outcomes
    seed = args.seed if args.seed is not None else (scenario.seed or 0)
    povm, achieved = optimize_measurement(ensemble, outcomes, seed, scenario.tolerances)
    baseline = mutual_information(scenario.holevo_instance, scenario.tolerances)
    report = analyze(
        CqChannelInstance.create(ensemble, povm), tol=scenario.tolerances, strict=False
    )
    checks = (*report.checks, Check.at_most("achieved_le_chi", achieved, report.chi + CHECK_TOL))
    doc = report_document(
        kind="holevo_optimize",
        input_sha256=digest,
        tolerances=scenario.tolerances,
        scalars={
            **_holevo_scalars(report),
            "achieved_mutual_information": achieved,
            "scenario_povm_mutual_information": baseline,
        },
        checks=_check_dicts(checks),
        atoms=list(report.atoms),
        extras={"optimized_povm": [matrix_to_json(m) for m in povm.elements]},
        seed=seed,
    )
    _emit(doc, args)
    _summary(
        [
            f"achieved I = {_display(achieved, args.bits)} "
            f"(scenario POVM: {_display(baseline, args.bits)}, chi cap: {_display(report.chi, args.bits)})",
            "PASS" if doc["passed"] else "FAIL",
        ]
    )
    return 0 if doc["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=None, help="write the report to this path")
    common.add_argument("--tol-pack", type=Path, default=None, help="JSON tolerance overrides")
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common.add_argument("--bits", action="store_true", help="display information values in bits")

    parser = argparse.ArgumentParser(
        prog="qfluct",
        description="Two-time fluctuation theorems and the sharpened Holevo bound "
        f"(scenario schema v{SCHEMA_VERSION})",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="verify the fluctuation identity")
    p_verify.add_argument("scenario", type=Path)
    p_verify.set_defaults(func=cmd_verify)

    p_jz = sub.add_parser("jarzynski", parents=[common], help="work statistics of a Gibbs protocol")
    p_jz.add_argument("scenario", type=Path)
    p_jz.add_argument("--beta", type=float, default=None, help="override the scenario beta")
    p_jz.set_defaults(func=cmd_jarzynski)

    p_holevo = sub.add_parser("holevo", help="classical-quantum channel analysis")
    hsub = p_holevo.add_subparsers(dest="subcommand", required=True)

    p_an = hsub.add_parser("analyze", parents=[common], help="sharpened-bound report")
    p_an.add_argument("scenario", type=Path)
    p_an.set_defaults(func=cmd_holevo_analyze)

    p_rand = hsub.add_parser("random", parents=[common], help="randomized verification campaign")
    p_rand.add_argument("--dim", type=int, required=True)
    p_rand.add_argument("--words", type=int, required=True)
    p_rand.add_argument("--outcomes", type=int, required=True)
    p_rand.add_argument("--trials", type=int, required=True)
    p_rand.add_argument("--csv", type=Path, default=None, help="write rows to this CSV path")
    p_rand.add_argument("--state-kind", choices=STATE_KINDS, default="mix")
    p_rand.set_defaults(func=cmd_holevo_random)

    p_opt = hsub.add_parser("optimize", parents=[common], help="search for a better measurement")
    p_opt.add_argument("scenario", type=Path)
    p_opt.add_argument("--outcomes", type=int, default=None)
    p_opt.set_defaults(func=cmd_holevo_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except QfluctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
