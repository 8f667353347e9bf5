"""Command-line front end.

Commands: verify, jarzynski, holevo analyze | random | optimize.
Exit codes: 0 success, 1 assertion failure, 2 parse/validation error.
Reports are JSON (nats); holevo random emits CSV.  The --bits flag
converts the stderr summary only; files always stay in nats.
"""

from __future__ import annotations

import argparse
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

CSV_SCALARS = (
    "mutual_information", "chi", "gamma", "neg_log_gamma", "bound_slack",
    "g1", "g2", "equality_residual", "route_error",
)
CSV_HEADER = ",".join(("trial", "seed", "dim", "words", "outcomes", "state_kind", *CSV_SCALARS, "passed"))
CSV_VERSION_LINE = "# qfluct-holevo-random-csv v1"

LN2 = math.log(2.0)


def _display(value: float, bits: bool) -> str:
    value += 0.0  # -0.0 + 0.0 is +0.0, so a zero never prints as "-0"
    return f"{value / LN2:.9g} bits" if bits else f"{value:.9g} nats"


def _tolerances(args) -> Tolerances | None:
    return load_tolerances(args.tol_pack) if args.tol_pack else None


def _scenario(args, kind: str, command: str):
    """Load the scenario file (with any --tol-pack) and require its kind."""
    scenario, digest = load_scenario(args.scenario, _tolerances(args))
    if scenario.kind != kind:
        raise ValidationError(f"{command} expects a {kind} scenario, got kind {scenario.kind!r}")
    return scenario, digest


def _finish(args, scenario, digest: str, summary: list[str], **fields) -> int:
    """Write the report to --out or stdout, print the summary and the
    verdict to stderr, and return the exit code.  ``fields`` go to
    report_document; kind and seed default to the scenario's."""
    fields.setdefault("kind", scenario.kind)
    fields.setdefault("seed", scenario.seed)
    doc = report_document(input_sha256=digest, tolerances=scenario.tolerances, **fields)
    text = write_report(doc, args.out)
    if args.out is None:
        print(text)
    print("\n".join([*summary, "PASS" if doc["passed"] else "FAIL"]), file=sys.stderr)
    return 0 if doc["passed"] else 1


def cmd_verify(args) -> int:
    scenario, digest = _scenario(args, "two_time", "verify")
    report = verify_ft(scenario.two_time, tolerances=scenario.tolerances)
    summary = [
        f"<exp(-delta_a)> = {report.lhs:.12g}, gamma = {report.gamma:.12g}",
        f"mean delta_a = {report.mean_delta_a:.12g}, jensen slack = {report.jensen_slack:.3e}",
    ]
    scalars = {
        "lhs": report.lhs,
        "gamma": report.gamma,
        "mean_delta_a": report.mean_delta_a,
        "jensen_slack": report.jensen_slack,
        "identity_error": report.identity_error,
        "max_violation": report.max_violation,
    }
    return _finish(
        args, scenario, digest, summary, scalars=scalars, checks=report.checks, atoms=report.atoms
    )


def cmd_jarzynski(args) -> int:
    scenario, digest = _scenario(args, "jarzynski", "jarzynski")
    beta = args.beta if args.beta is not None else scenario.jarzynski_beta
    _, report = jarzynski_scenario(
        scenario.jarzynski_h0, scenario.jarzynski_protocol, beta, tolerances=scenario.tolerances
    )
    summary = [
        f"<exp(-beta W)> = {report.exp_neg_beta_work:.12g}, Z_tau/Z_0 = {report.z_ratio:.12g}",
        f"<W> = {report.mean_work:.12g}, dF = {report.delta_f:.12g}",
    ]
    scalars = {
        "beta": report.beta,
        "z0": report.z0,
        "z_tau": report.z_tau,
        "z_ratio": report.z_ratio,
        "delta_f": report.delta_f,
        "mean_work": report.mean_work,
        "exp_neg_beta_work": report.exp_neg_beta_work,
        "gamma": report.gamma,
    }
    return _finish(
        args, scenario, digest, summary, scalars=scalars, checks=report.checks, atoms=report.ft.atoms
    )


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


def cmd_holevo_analyze(args) -> int:
    scenario, digest = _scenario(args, "holevo", "holevo analyze")
    report = analyze(scenario.holevo_instance, tol=scenario.tolerances, strict=False)
    summary = [
        f"I = {_display(report.mutual_information, args.bits)}, chi = {_display(report.chi, args.bits)}",
        f"-ln(gamma) = {_display(report.neg_log_gamma, args.bits)}, "
        f"bound slack = {_display(report.bound_slack, args.bits)}",
        f"chain: gamma={report.gamma:.12g} <= g1={report.chain.g1:.12g} <= g2={report.chain.g2:.12g}",
        f"equality residual = {report.equality_residual:.3e}",
    ]
    scalars = _holevo_scalars(report)
    return _finish(
        args, scenario, digest, summary, scalars=scalars, checks=report.checks, atoms=report.atoms
    )


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
        scalars = _holevo_scalars(report)
        fields = (trial, seed, args.dim, args.words, args.outcomes, args.state_kind)
        values = (repr(float(scalars[name])) for name in CSV_SCALARS)
        rows.append(",".join((*map(str, fields), *values, str(int(report.passed)))))
    text = "\n".join(rows) + "\n"
    if args.csv:
        Path(args.csv).write_text(text)
    else:
        print(text, end="")
    print(f"{args.trials} trials, {'all passed' if all_passed else 'FAILURES present'}", file=sys.stderr)
    return 0 if all_passed else 1


def cmd_holevo_optimize(args) -> int:
    scenario, digest = _scenario(args, "holevo", "holevo optimize")
    ensemble = scenario.holevo_instance.ensemble
    outcomes = args.outcomes if args.outcomes is not None else scenario.holevo_instance.povm.n_outcomes
    seed = args.seed if args.seed is not None else (scenario.seed or 0)
    povm, achieved = optimize_measurement(ensemble, outcomes, seed, scenario.tolerances)
    baseline = mutual_information(scenario.holevo_instance, scenario.tolerances)
    report = analyze(CqChannelInstance.create(ensemble, povm), tol=scenario.tolerances, strict=False)
    summary = [
        f"achieved I = {_display(achieved, args.bits)} "
        f"(scenario POVM: {_display(baseline, args.bits)}, chi cap: {_display(report.chi, args.bits)})"
    ]
    return _finish(
        args, scenario, digest, summary,
        kind="holevo_optimize",
        seed=seed,
        scalars={
            **_holevo_scalars(report),
            "achieved_mutual_information": achieved,
            "scenario_povm_mutual_information": baseline,
        },
        checks=(*report.checks, Check.at_most("achieved_le_chi", achieved, report.chi + CHECK_TOL)),
        atoms=report.atoms,
        extras={"optimized_povm": [matrix_to_json(m) for m in povm.elements]},
    )


# Each flag as (names, add_argument keyword arguments); a command adds the flags it reads.
_SCENARIO = ("scenario",), {"type": Path}
_OUT = ("--out",), {"type": Path, "default": None, "help": "write the report to this path"}
_TOL_PACK = ("--tol-pack",), {"type": Path, "default": None, "help": "JSON tolerance overrides"}
_SEED = ("--seed",), {
    "type": int, "default": None, "help": "random seed (default: the scenario seed, else 0)"
}
_BITS = ("--bits",), {"action": "store_true", "help": "display information values in bits"}


def _command(group, name: str, func, help: str, *flags) -> None:
    """One subcommand running ``func``, with ``flags`` in order."""
    # no prefix matching, or `holevo random --out 5` would read as --outcomes 5
    command = group.add_parser(name, help=help, allow_abbrev=False)
    for names, kwargs in flags:
        command.add_argument(*names, **kwargs)
    command.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfluct",
        description="Two-time fluctuation theorems and the sharpened Holevo bound "
        f"(scenario schema v{SCHEMA_VERSION})",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "verify", cmd_verify, "verify the fluctuation identity", _SCENARIO, _OUT, _TOL_PACK)
    _command(
        sub, "jarzynski", cmd_jarzynski, "work statistics of a Gibbs protocol", _SCENARIO, _OUT, _TOL_PACK,
        (("--beta",), {"type": float, "default": None, "help": "override the scenario beta"}),
    )

    holevo = sub.add_parser("holevo", help="classical-quantum channel analysis")
    hsub = holevo.add_subparsers(dest="subcommand", required=True)
    _command(
        hsub, "analyze", cmd_holevo_analyze, "sharpened-bound report", _SCENARIO, _OUT, _TOL_PACK, _BITS
    )
    sizes = [((f"--{n}",), {"type": int, "required": True}) for n in ("dim", "words", "outcomes", "trials")]
    _command(
        hsub, "random", cmd_holevo_random, "randomized verification campaign", _TOL_PACK, _SEED, *sizes,
        (("--csv",), {"type": Path, "default": None, "help": "write rows to this CSV path"}),
        (("--state-kind",), {"choices": STATE_KINDS, "default": "mix"}),
    )
    _command(
        hsub, "optimize", cmd_holevo_optimize, "search for a better measurement",
        _SCENARIO, _OUT, _TOL_PACK, _BITS, _SEED, (("--outcomes",), {"type": int, "default": None}),
    )
    return parser


# built once; the handlers look up the library functions when they run
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
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
