"""The four benchmark workloads.

Every input is generated here from the workload seed during set-up; an
operation only calls qfluct's public API.  qfluct functions are looked up as
module attributes at call time, so the traced run sees its wrappers.  Checks
run outside the timed region and import scipy lazily, so that set-up time
covers only qfluct and the inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from qfluct import channel, cli, holevo, measurement, ttm

HERE = Path(__file__).resolve().parent


@dataclass
class Workload:
    cycle: int                                   # operations in one round of the input mix
    run: Callable[[int], object]                 # operation i (timed)
    check: Callable[[int, object], str | None]   # None if operation i's result is correct
    fingerprint: Callable[[object], object]      # compared exactly between traced and untraced runs
    group: Callable[[int], str] | None = None    # label for per-instance latency medians


def _holevo_fingerprint(rep) -> tuple:
    return (
        rep.mutual_information, rep.chi, rep.shannon, rep.conditional_term, rep.gamma,
        rep.gamma_distribution, rep.gamma_trace, rep.neg_log_gamma, rep.mean_delta_a,
        rep.bound_slack, rep.chain, rep.equality_residual, rep.route_error, rep.atoms, rep.checks,
    )


def _check_holevo(inst, rep) -> str | None:
    import oracle

    if not rep.passed:
        return "report failed: " + ", ".join(c.name for c in rep.failures())
    ens = inst.ensemble
    return oracle.holevo_mismatch(
        ens.priors, ens.states, inst.povm.elements, rep.chi, rep.mutual_information
    )


# ---------------------------------------------------------------- holevo-campaign

CAMPAIGN_SHAPES = [(d, j, k) for d in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3, 4)]


def holevo_campaign(seed: int, tmp: Path) -> Workload:
    def run(i: int):
        d, j, k = CAMPAIGN_SHAPES[i % len(CAMPAIGN_SHAPES)]
        inst = holevo.random_instance(d, j, k, seed * 1_000_000 + i, "mix")
        return inst, holevo.analyze(inst, strict=False)

    return Workload(
        cycle=len(CAMPAIGN_SHAPES),
        run=run,
        check=lambda i, result: _check_holevo(*result),
        fingerprint=lambda result: _holevo_fingerprint(result[1]),
    )


# ---------------------------------------------------------------- holevo-sweep

# (d, K, J) and the label of its per-instance median; n = d*K*J.
SWEEP_SHAPES = ((4, 4, 4, "n64_j4"), (8, 8, 1, "n64_j1"), (4, 4, 6, "n96"), (4, 4, 8, "n128"))


def _state(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _povm(rng: np.random.Generator, d: int, k: int) -> list[np.ndarray]:
    """M_k = T^-1/2 B_k† B_k T^-1/2 with Gaussian B_k and T = sum_k B_k† B_k."""
    grams = []
    for _ in range(k):
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        grams.append(b.conj().T @ b)
    w, v = np.linalg.eigh(sum(grams))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ g @ inv_sqrt for g in grams]


def holevo_sweep(seed: int, tmp: Path) -> Workload:
    # Word j has rank d - (j mod d): full-rank, rank-deficient and pure states in
    # a fixed pattern, so the branch structure, and with it the cost, is the same
    # for every seed while the entries are random.
    rng = np.random.default_rng([seed, 2])
    instances = []
    for d, k, j, _ in SWEEP_SHAPES:
        states = [_state(rng, d, d - (w % d)) for w in range(j)]
        ensemble = holevo.Ensemble.create(rng.dirichlet(np.ones(j)), states)
        instances.append(holevo.CqChannelInstance.create(ensemble, measurement.POVM.create(_povm(rng, d, k))))
    return Workload(
        cycle=len(instances),
        run=lambda i: holevo.analyze(instances[i % len(instances)], strict=False),
        check=lambda i, rep: _check_holevo(instances[i % len(instances)], rep),
        fingerprint=_holevo_fingerprint,
        group=lambda i: SWEEP_SHAPES[i % len(SWEEP_SHAPES)][3],
    )


# ---------------------------------------------------------------- channel-verify

# Two-time protocols: (d, channel, initial spectrum degenerate, final degenerate).
# Jarzynski protocols: (d, "jarzynski", number of steps).  Fifteen entries put
# both p50 and p90 in the middle of one entry's latencies.
CHANNEL_MIX = (
    (24, "depolarizing", False, False),
    (20, "depolarizing", False, False),
    (16, "depolarizing", False, True),
    (12, "depolarizing", True, False),
    (4, "depolarizing", False, False),
    (24, "amplitude_damping", False, False),
    (16, "amplitude_damping", True, False),
    (6, "amplitude_damping", False, True),
    (20, "dephasing", False, False),
    (8, "dephasing", True, True),
    (24, "unitary", False, False),
    (12, "unitary", True, True),
    (16, "jarzynski", 3),
    (24, "jarzynski", 3),
    (8, "jarzynski", 2),
)
BETA = 1.0


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def _spectrum(rng: np.random.Generator, d: int, degenerate: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues of a random observable.

    A degenerate spectrum takes the integers -2..2 in turn, so repeats are
    exact and the number of branches, which sets the cost, is the same for
    every seed; the random eigenvectors make the observable random.
    """
    if degenerate:
        values = (np.arange(d) % 5 - 2).astype(float)
    else:
        values = rng.uniform(-2.0, 2.0, size=d)
    return _haar(rng, d), values


def _hermitian(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    h = (vectors * values) @ vectors.conj().T
    return (h + h.conj().T) / 2


def _kraus(rng: np.random.Generator, kind: str, d: int) -> list[np.ndarray]:
    q = rng.uniform(0.1, 0.9)
    eye = np.eye(d, dtype=complex)
    if kind == "unitary":
        return [_haar(rng, d)]
    if kind == "depolarizing":  # d*d + 1 operators
        ops = [np.sqrt(1 - q) * eye]
        for a in range(d):
            for b in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[a, b] = np.sqrt(q / d)
                ops.append(e)
        return ops
    if kind == "dephasing":
        ops = [np.sqrt(1 - q) * eye]
        for a in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[a, a] = np.sqrt(q)
            ops.append(e)
        return ops
    k0 = eye.copy()  # amplitude damping of every excited level to the ground state
    k0[1:, 1:] *= np.sqrt(1 - q)
    ops = [k0]
    for a in range(1, d):
        e = np.zeros((d, d), dtype=complex)
        e[0, a] = np.sqrt(q)
        ops.append(e)
    return ops


def channel_verify(seed: int, tmp: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    entries = []
    for spec in CHANNEL_MIX:
        d, kind = spec[0], spec[1]
        if kind == "jarzynski":
            h0 = _hermitian(*_spectrum(rng, d, False))
            steps = [(_hermitian(*_spectrum(rng, d, False)), rng.uniform(0.1, 1.0)) for _ in range(spec[2])]
            entries.append((kind, (h0, channel.EvolutionProtocol.create(steps))))
            continue
        rho = _state(rng, d, d + 2)
        vectors_i, values_i = _spectrum(rng, d, spec[2])
        h_final = _hermitian(*_spectrum(rng, d, spec[3]))
        kraus = _kraus(rng, kind, d)
        protocol = ttm.TwoTimeProtocol.create(
            rho,
            measurement.observable_from_hermitian(_hermitian(vectors_i, values_i)),
            channel.KrausChannel.create(kraus),
            measurement.observable_from_hermitian(h_final),
        )
        entries.append(("verify", (protocol, rho, vectors_i, values_i, kraus, h_final)))

    def run(i: int):
        kind, data = entries[i % len(entries)]
        if kind == "verify":
            return ttm.verify_ft(data[0])
        return ttm.jarzynski_scenario(data[0], data[1], BETA)[1]

    def check(i: int, report) -> str | None:
        import oracle

        kind, data = entries[i % len(entries)]
        if not report.passed:
            return f"{kind} report failed"
        if kind == "verify":
            gamma = oracle.efficacy(*data[1:])
            return oracle.ft_mismatch(report, gamma, report.identity_tol)
        h0, protocol = data
        return oracle.jarzynski_mismatch(report, oracle.partition_ratio(h0, protocol.final_hamiltonian, BETA))

    return Workload(
        cycle=len(entries),
        run=run,
        check=check,
        fingerprint=lambda report: report,
    )


# ---------------------------------------------------------------- cli-scenarios


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


RANDOM_TRIALS = 4


def _matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def cli_scenarios(seed: int, tmp: Path) -> Workload:
    scenarios = HERE.parent / "scenarios"
    reference = json.loads((HERE / "reference.json").read_text())
    docs = {p.stem: json.loads(p.read_text()) for p in scenarios.glob("*.json")}

    def holevo_inputs(stem: str):
        doc = docs[stem]
        ens = doc["ensemble"]
        return ens["priors"], [_matrix(s) for s in ens["states"]], [_matrix(m) for m in doc["povm"]]

    # Independent checks of each report, beyond the reference scalars.
    def verify_gamma(oracle, report):
        doc = docs["bit_flip_two_time"]
        rho, h_i, h_f = (_matrix(doc[k]) for k in ("initial_state", "initial_observable", "final_observable"))
        values_i, vectors_i = np.linalg.eigh(h_i)
        kraus = [_matrix(m) for m in doc["channel"]["kraus"]]
        gamma = oracle.efficacy(rho, vectors_i, values_i, kraus, h_f)
        return oracle.close("gamma", report["scalars"]["gamma"], gamma)

    def jarzynski_ratio(oracle, report):
        doc = docs["sudden_quench_jarzynski"]
        ratio = oracle.partition_ratio(_matrix(doc["h0"]), _matrix(doc["protocol"][-1]["hamiltonian"]), doc["beta"])
        return oracle.close("z_ratio", report["scalars"]["z_ratio"], ratio)

    def holevo_scalars(stem: str):
        def check(oracle, report):
            s = report["scalars"]
            return oracle.holevo_mismatch(*holevo_inputs(stem), s["chi"], s["mutual_information"])
        return check

    def optimized_povm(oracle, report):
        priors, states, _ = holevo_inputs("zero_plus_holevo")
        povm = [_matrix(m) for m in report["optimized_povm"]]
        achieved = report["scalars"]["achieved_mutual_information"]
        if oracle.povm_defect(povm) > 1e-9:
            return f"optimized POVM defect {oracle.povm_defect(povm):.3e}"
        if achieved > oracle.chi(priors, states) + 1e-8:
            return f"achieved I {achieved!r} exceeds chi"
        return oracle.close("achieved_mutual_information", achieved, oracle.mutual_information(priors, states, povm))

    def random_rows(oracle, raw: bytes):
        rows = list(csv.DictReader(raw.decode().splitlines()[1:]))
        if len(rows) != RANDOM_TRIALS:
            return f"{len(rows)} rows"
        for row in rows:
            if row["passed"] != "1":
                return f"trial {row['trial']} failed"
            inst = holevo.random_instance(2, 2, 3, int(row["seed"]), "mix")
            ens = inst.ensemble
            reason = oracle.holevo_mismatch(
                ens.priors, ens.states, inst.povm.elements, float(row["chi"]), float(row["mutual_information"])
            )
            if reason:
                return f"trial {row['trial']}: {reason}"
        return None

    def path(stem: str) -> str:
        return str(scenarios / f"{stem}.json")

    # (name, argv, output file, independent check)
    calls = (
        ("verify", ["verify", path("bit_flip_two_time")], "verify.json", verify_gamma),
        ("jarzynski", ["jarzynski", path("sudden_quench_jarzynski")], "jarzynski.json", jarzynski_ratio),
        ("analyze_zero_plus", ["holevo", "analyze", path("zero_plus_holevo")], "zero_plus.json",
         holevo_scalars("zero_plus_holevo")),
        ("analyze_orthogonal", ["holevo", "analyze", path("orthogonal_holevo")], "orthogonal.json",
         holevo_scalars("orthogonal_holevo")),
        ("optimize_zero_plus", ["holevo", "optimize", path("zero_plus_holevo"), "--seed", str(seed)],
         "optimize.json", optimized_povm),
        ("random", ["holevo", "random", "--dim", "2", "--words", "2", "--outcomes", "3",
                    "--trials", str(RANDOM_TRIALS), "--seed", str(seed)], "random.csv", None),
    )
    argvs = [argv + ["--csv" if out.endswith(".csv") else "--out", str(tmp / out)] for _, argv, out, _ in calls]
    sink = _Discard()

    def run(i: int):
        k = i % len(calls)
        with contextlib.redirect_stderr(sink):
            code = cli.main(argvs[k])
        return code, (tmp / calls[k][2]).read_bytes()

    def check(i: int, result) -> str | None:
        import oracle

        name, _, _, independent = calls[i % len(calls)]
        code, raw = result
        if code != 0:
            reason = f"exit code {code}"
        elif independent is None:
            reason = random_rows(oracle, raw)
        else:
            report = json.loads(raw)
            reason = (
                (None if report["passed"] else "report failed")
                or oracle.scalars_mismatch(report["scalars"], reference[name])
                or independent(oracle, report)
            )
        return reason and f"{name}: {reason}"

    return Workload(
        cycle=len(calls),
        run=run,
        check=check,
        fingerprint=lambda result: result,
    )


WORKLOADS = {
    "holevo-campaign": holevo_campaign,
    "holevo-sweep": holevo_sweep,
    "channel-verify": channel_verify,
    "cli-scenarios": cli_scenarios,
}


def build(name: str, seed: int, tmp: Path) -> Workload:
    return WORKLOADS[name](seed, tmp)
