"""Two-time measurement engine.

Measure an initial observable, evolve through a channel, measure a final
observable: the outcome difference is a random variable whose exponential
average equals a trace formula (the efficacy).  This module computes the
joint outcome statistics, the difference distribution and its
characteristic function, the efficacy, and verifies the integral
fluctuation identity together with its Jensen consequence.  The Gibbs /
work special case is provided as a scenario builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import EvolutionProtocol, KrausChannel, apply_channel, unitary_from_protocol
from .errors import ConsistencyError, IllPosedProtocolError, ValidationError
from .measurement import (
    ExtendedObservable,
    measurement_channel,
    observable_from_hermitian,
)
from .operator_core import (
    DEFAULT_TOLS,
    Tolerances,
    require_density_matrix,
    require_hermitian,
    spectral_decompose,
)


@dataclass(frozen=True, eq=False)
class TwoTimeProtocol:
    """Initial state, initial/final observables, and the channel between
    the two measurements.  The initial observable must have a finite
    spectrum; the final one may carry a +infinity branch."""

    initial_state: np.ndarray
    initial_observable: ExtendedObservable
    channel: KrausChannel
    final_observable: ExtendedObservable

    @classmethod
    def create(
        cls,
        initial_state,
        initial_observable: ExtendedObservable,
        channel: KrausChannel,
        final_observable: ExtendedObservable,
        tol: Tolerances = DEFAULT_TOLS,
    ) -> "TwoTimeProtocol":
        rho = require_density_matrix(initial_state, tol)
        dims = {rho.shape[0], initial_observable.dim, channel.dim, final_observable.dim}
        if len(dims) != 1:
            raise ValidationError(f"protocol dimensions disagree: {sorted(dims)}")
        if initial_observable.has_infinite_branch:
            raise ValidationError("the initial observable must have a finite spectrum")
        return cls(
            initial_state=rho,
            initial_observable=initial_observable,
            channel=channel,
            final_observable=final_observable,
        )

    @property
    def dim(self) -> int:
        return self.initial_state.shape[0]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome probabilities p[m, n] with the branch values of both
    observables.  Final values may contain +infinity; those columns carry
    probability at most prob_floor by construction."""

    probs: np.ndarray            # (M, N) real
    initial_values: np.ndarray   # (M,)
    final_values: np.ndarray     # (N,) possibly +inf

    def total(self) -> float:
        return float(self.probs.sum())


@dataclass(frozen=True, eq=False)
class DeltaDistribution:
    """Atoms (delta_a, probability) of the outcome-difference variable."""

    values: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class FtReport:
    """Fluctuation-theorem verification: exponential average vs. trace
    formula, and the Jensen bound.  Failure is a report outcome, not an
    exception."""

    lhs: float                # <exp(-delta_a)> from the distribution
    gamma: float              # trace-formula efficacy
    mean_delta_a: float
    jensen_slack: float       # <delta_a> + ln(gamma), must be >= -jensen_tol
    identity_error: float     # |lhs - gamma| / max(1, |gamma|)
    max_violation: float
    identity_tol: float
    jensen_tol: float
    identity_pass: bool
    jensen_pass: bool
    atoms: tuple[tuple[float, float], ...]  # merged delta_a distribution

    @property
    def passed(self) -> bool:
        return self.identity_pass and self.jensen_pass


def joint_distribution(
    protocol: TwoTimeProtocol, tol: Tolerances = DEFAULT_TOLS
) -> JointDistribution:
    """Joint probabilities p[m, n] = tr(Pi_n^f E(Pi_m^i rho Pi_m^i)).

    Raises IllPosedProtocolError when a final +infinity branch receives
    probability above prob_floor.
    """
    a_i, a_f = protocol.initial_observable, protocol.final_observable
    v_f, v_f_conj = a_f.vectors, a_f.vectors.conj()
    probs = np.zeros((len(a_i.values), len(a_f.values)))
    for m, v_m in enumerate(a_i.blocks()):
        c_m = v_m.conj().T @ protocol.initial_state @ v_m
        evolved = apply_channel(protocol.channel, v_m @ c_m @ v_m.conj().T)
        # diag(V_f† evolved V_f) summed over each final branch's columns
        column_probs = np.einsum("ij,ij->j", v_f_conj, evolved @ v_f).real
        row = np.add.reduceat(column_probs, a_f.offsets[:-1])
        marginal = float(np.trace(c_m).real)
        if abs(row.sum() - marginal) > 1e-10:
            raise ConsistencyError(
                f"joint marginal over final outcomes {row.sum()!r} differs from "
                f"initial probability {marginal!r}"
            )
        probs[m] = row
    if probs.min() < -tol.prob_floor:
        raise ConsistencyError(f"joint probability {probs.min():.3e} below -prob_floor")
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ConsistencyError(f"joint probabilities sum to {probs.sum()!r}, not 1")
    final_values = np.array(a_f.values, dtype=float)
    if a_f.has_infinite_branch:
        leak = float(probs[:, -1].sum())
        if leak > tol.prob_floor:
            raise IllPosedProtocolError(
                f"the +infinity branch of the final observable has probability "
                f"{leak:.3e} > prob_floor; the protocol is ill-posed"
            )
    return JointDistribution(
        probs=probs,
        initial_values=np.array(a_i.values, dtype=float),
        final_values=final_values,
    )


def delta_a_distribution(
    joint: JointDistribution, tol: Tolerances = DEFAULT_TOLS
) -> DeltaDistribution:
    """Aggregate the joint distribution into atoms of delta_a = a_f - a_i.

    Outcomes whose values differ by at most degeneracy_tol * max(1, |v|)
    merge into one atom at the probability-weighted mean.  Atoms of
    probability at or below prob_floor are dropped (this covers both the
    +infinity entries and structurally forbidden transitions, whose
    rounding noise would otherwise be amplified by exp(-delta_a)).
    """
    pairs = []
    for m, a_m in enumerate(joint.initial_values):
        for n, a_n in enumerate(joint.final_values):
            if math.isinf(a_n):
                continue
            pairs.append((a_n - a_m, joint.probs[m, n]))
    pairs.sort(key=lambda t: t[0])
    members: list[list[tuple[float, float]]] = []
    for v, p in pairs:
        if members and v - members[-1][-1][0] <= tol.degeneracy_tol * max(1.0, abs(v)):
            members[-1].append((v, p))
        else:
            members.append([(v, p)])
    values: list[float] = []
    probs: list[float] = []
    for cluster in members:
        total = sum(p for _, p in cluster)
        if total <= tol.prob_floor:
            continue
        values.append(sum(v * p for v, p in cluster) / total)
        probs.append(total)
    kept = float(sum(probs))
    if abs(kept - 1.0) > 1e-10:
        raise ConsistencyError(
            f"delta_a atoms sum to {kept!r} after dropping sub-floor atoms; "
            f"the instance carries pathological probability mass at the floor"
        )
    return DeltaDistribution(values=np.array(values), probs=np.array(probs))


def characteristic_function(joint: JointDistribution, s: complex) -> complex:
    """G(s) = sum p exp(i s delta_a); G(i) is the exponential average
    <exp(-delta_a)>.  +infinity entries contribute zero (they carry
    probability at most prob_floor, and vanish by continuity for
    Im(s) > 0)."""
    out = 0.0 + 0.0j
    s = complex(s)
    for m, a_m in enumerate(joint.initial_values):
        for n, a_n in enumerate(joint.final_values):
            if math.isinf(a_n):
                continue
            out += joint.probs[m, n] * np.exp(1j * s * (a_n - a_m))
    return complex(out)


def efficacy(protocol: TwoTimeProtocol) -> float:
    """Trace-formula efficacy tr(exp(-A_f) E(M_i(rho) exp(A_i))).

    Both exponentials are spectral over the finite branches; the +infinity
    branch of A_f is the kernel of exp(-A_f).  The trace must be real up
    to rounding; the residual imaginary part is asserted then discarded.
    """
    a_i = protocol.initial_observable
    rho_m = measurement_channel(protocol.initial_state, a_i.measurement())
    weighted = apply_channel(protocol.channel, rho_m @ a_i.exp_pos())
    # tr(X Y) as an elementwise sum, without forming X Y
    value = complex(np.sum(protocol.final_observable.exp_neg().T * weighted))
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ConsistencyError(f"efficacy trace has imaginary residue {value.imag:.3e}")
    return float(value.real)


def exponential_average(delta: DeltaDistribution) -> float:
    """<exp(-delta_a)> computed by exact enumeration over the atoms."""
    return float(np.sum(delta.probs * np.exp(-delta.values)))


def mean_delta_a(delta: DeltaDistribution) -> float:
    return float(np.sum(delta.probs * delta.values))


def verify_ft(
    protocol: TwoTimeProtocol,
    tol: float = 1e-9,
    jensen_tol: float = 1e-8,
    tolerances: Tolerances = DEFAULT_TOLS,
) -> FtReport:
    """Check <exp(-delta_a)> = gamma and <delta_a> >= -ln(gamma).

    The left side comes from exact enumeration of the outcome
    distribution, the right side from the trace formula; the two code
    paths share no intermediate results.
    """
    joint = joint_distribution(protocol, tolerances)
    delta = delta_a_distribution(joint, tolerances)
    lhs = exponential_average(delta)
    gamma = efficacy(protocol)
    if gamma <= 0:
        raise ConsistencyError(f"efficacy {gamma!r} is not positive")
    mean = mean_delta_a(delta)
    identity_error = abs(lhs - gamma) / max(1.0, abs(gamma))
    jensen_slack = mean + math.log(gamma)
    identity_pass = identity_error <= tol
    jensen_pass = jensen_slack >= -jensen_tol
    return FtReport(
        lhs=lhs,
        gamma=gamma,
        mean_delta_a=mean,
        jensen_slack=jensen_slack,
        identity_error=identity_error,
        max_violation=max(identity_error, -min(jensen_slack, 0.0)),
        identity_tol=tol,
        jensen_tol=jensen_tol,
        identity_pass=identity_pass,
        jensen_pass=jensen_pass,
        atoms=tuple(zip(delta.values.tolist(), delta.probs.tolist())),
    )


@dataclass(frozen=True)
class JarzynskiReport:
    """Work-statistics summary of a Gibbs-initialized unitary protocol."""

    beta: float
    z0: float
    z_tau: float
    z_ratio: float
    delta_f: float              # -ln(Z_tau/Z_0) / beta
    mean_work: float            # <delta_a> / beta
    exp_neg_beta_work: float    # <exp(-beta W)>
    gamma: float
    identity_error: float       # |<exp(-beta W)> - Z_tau/Z_0|
    max_work_slack: float       # beta <W> - beta dF, must be >= -tol
    identity_pass: bool
    max_work_pass: bool
    ft: FtReport

    @property
    def passed(self) -> bool:
        return self.identity_pass and self.max_work_pass and self.ft.passed


def gibbs_state(h, beta: float, tol: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, float]:
    """Thermal state exp(-beta H)/Z and its partition function."""
    dec = spectral_decompose(h, tol)
    weights = np.exp(-beta * dec.values)
    z = float(weights.sum())
    rho = (dec.vectors * (weights / z)) @ dec.vectors.conj().T
    return rho, z


def jarzynski_scenario(
    h0,
    protocol: EvolutionProtocol,
    beta: float,
    identity_tol: float = 1e-8,
    tolerances: Tolerances = DEFAULT_TOLS,
) -> tuple[TwoTimeProtocol, JarzynskiReport]:
    """Build the work-statistics special case and verify its identities.

    Initial Gibbs state of h0, energy observables scaled by beta at both
    ends, unitary evolution from the protocol.  The report checks
    <exp(-beta W)> = Z_tau/Z_0 and the maximum work inequality
    beta <W> >= beta dF.
    """
    beta = float(beta)
    if beta <= 0:
        raise ValidationError(f"inverse temperature must be positive, got {beta}")
    h0 = require_hermitian(h0, tolerances)
    h_tau = protocol.final_hamiltonian
    rho0, z0 = gibbs_state(h0, beta, tolerances)
    _, z_tau = gibbs_state(h_tau, beta, tolerances)
    two_time = TwoTimeProtocol.create(
        rho0,
        observable_from_hermitian(beta * h0, tolerances),
        unitary_from_protocol(protocol, tolerances),
        observable_from_hermitian(beta * h_tau, tolerances),
        tolerances,
    )
    ft = verify_ft(two_time, tolerances=tolerances)
    z_ratio = z_tau / z0
    delta_f = -math.log(z_ratio) / beta
    mean_work = ft.mean_delta_a / beta
    identity_error = abs(ft.lhs - z_ratio)
    max_work_slack = beta * mean_work - beta * delta_f
    report = JarzynskiReport(
        beta=beta,
        z0=z0,
        z_tau=z_tau,
        z_ratio=z_ratio,
        delta_f=delta_f,
        mean_work=mean_work,
        exp_neg_beta_work=ft.lhs,
        gamma=ft.gamma,
        identity_error=identity_error,
        max_work_slack=max_work_slack,
        identity_pass=identity_error <= identity_tol,
        max_work_pass=max_work_slack >= -identity_tol,
        ft=ft,
    )
    return two_time, report
