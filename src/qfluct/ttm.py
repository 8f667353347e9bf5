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
from typing import Sequence

import numpy as np

from .channel import EvolutionProtocol, KrausChannel, apply_channel, unitary_from_protocol
from .errors import ConsistencyError, IllPosedProtocolError, ValidationError
from .measurement import (
    _EXP_LIMIT,
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
    """Joint probabilities p[m, n] = tr(Pi_n^f E(Pi_m^i rho Pi_m^i)),
    from one pass over the channel's Kraus operators (see _joint_blocks).

    Raises IllPosedProtocolError when a final +infinity branch receives
    probability above prob_floor.
    """
    return _joint_blocks([protocol], [1.0], tol)[0]


def _joint_blocks(
    protocols: Sequence[TwoTimeProtocol], weights: Sequence[float], tol: Tolerances
) -> list[JointDistribution]:
    """Joint distributions of a direct sum of protocols, block j weighted by
    weights[j].  With c the dephased state weight * V_i† rho V_i cut to its
    initial-branch diagonal blocks and T_k = V_f† K_k V_i, entry (j, a) of
    sum_k Re((T_k c) ∘ conj(T_k)) is initial column a's share of final
    column j: one pass over the Kraus operators, summed per branch.  The
    weighted blocks are checked as one protocol: entries >= -prob_floor, a
    total of one within 1e-10, and at most prob_floor on the +infinity final
    branches together."""
    joints = []
    for protocol, weight in zip(protocols, weights):
        a_i, a_f = protocol.initial_observable, protocol.final_observable
        v_i, v_f_adj = a_i.vectors, a_f.vectors.conj().T
        starts_i = a_i.offsets[:-1]
        branch = np.repeat(np.arange(len(a_i.values)), np.diff(a_i.offsets))
        c = weight * (v_i.conj().T @ protocol.initial_state @ v_i)
        c[branch[:, None] != branch[None, :]] = 0.0
        shares = np.zeros(c.shape)
        for k in protocol.channel.kraus_ops:
            t = v_f_adj @ (k @ v_i)
            shares += ((t @ c) * t.conj()).real
        probs = np.add.reduceat(np.add.reduceat(shares, starts_i, axis=1), a_f.offsets[:-1], axis=0).T
        marginals = np.add.reduceat(np.diagonal(c).real, starts_i)
        for row, marginal in zip(probs.sum(axis=1), marginals):
            if abs(row - marginal) > 1e-10:
                raise ConsistencyError(
                    f"joint marginal over final outcomes {float(row)!r} differs from "
                    f"initial probability {float(marginal)!r}"
                )
        values = (np.array(a_i.values, dtype=float), np.array(a_f.values, dtype=float))
        joints.append(JointDistribution(probs, *values))
    low = min(float(joint.probs.min()) for joint in joints)
    if low < -tol.prob_floor:
        raise ConsistencyError(f"joint probability {low:.3e} below -prob_floor")
    for joint in joints:
        np.clip(joint.probs, 0.0, None, out=joint.probs)
    total = sum(joint.total() for joint in joints)
    if abs(total - 1.0) > 1e-10:
        raise ConsistencyError(f"joint probabilities sum to {total!r}, not 1")
    leak = sum(float(joint.probs[:, -1].sum()) for joint in joints if math.isinf(joint.final_values[-1]))
    if leak > tol.prob_floor:
        raise IllPosedProtocolError(
            f"the +infinity branch of the final observable has probability "
            f"{leak:.3e} > prob_floor; the protocol is ill-posed"
        )
    return joints


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
    return _merge_atoms([joint], tol)


def _merge_atoms(
    joints: Sequence[JointDistribution], tol: Tolerances
) -> DeltaDistribution:
    """Atoms of delta_a over the outcome pairs of all joints in one
    clustering pass, so the sub-floor drop acts on the pooled mass; each
    joint contributes only its own (initial, final) pairs.  A sorted value v
    within degeneracy_tol * max(1, |v|) of its predecessor joins its cluster."""
    values, probs = _outcome_pairs(joints)
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    cuts = np.diff(values) > tol.degeneracy_tol * np.maximum(1.0, np.abs(values[1:]))
    starts = np.concatenate(([0], np.flatnonzero(cuts) + 1))
    totals = np.add.reduceat(probs, starts)
    moments = np.add.reduceat(values * probs, starts)
    kept = totals > tol.prob_floor
    mass = float(totals[kept].sum())
    if abs(mass - 1.0) > 1e-10:
        raise ConsistencyError(
            f"delta_a atoms sum to {mass!r} after dropping sub-floor atoms; "
            f"the instance carries pathological probability mass at the floor"
        )
    return DeltaDistribution(values=moments[kept] / totals[kept], probs=totals[kept])


def characteristic_function(joint: JointDistribution, s: complex) -> complex:
    """G(s) = sum p exp(i s delta_a); G(i) is the exponential average
    <exp(-delta_a)>.  +infinity entries contribute zero (they carry
    probability at most prob_floor, and vanish by continuity for
    Im(s) > 0)."""
    values, probs = _outcome_pairs([joint])
    return complex(np.sum(probs * np.exp(1j * complex(s) * values)))


def _outcome_pairs(joints: Sequence[JointDistribution]) -> tuple[np.ndarray, np.ndarray]:
    """(delta_a, p) of every outcome pair with a finite final value, joint
    by joint and row-major within each joint."""
    values, probs = [], []
    for joint in joints:
        # only the last final branch can be +infinity
        n = len(joint.final_values) - math.isinf(joint.final_values[-1])
        values.append((joint.final_values[:n] - joint.initial_values[:, None]).ravel())
        probs.append(joint.probs[:, :n].ravel())
    return np.concatenate(values), np.concatenate(probs)


def efficacy(protocol: TwoTimeProtocol) -> float:
    """Trace-formula efficacy tr(exp(-A_f) E(M_i(rho) exp(A_i))).

    Both exponentials are spectral over the finite branches; the +infinity
    branch of A_f is the kernel of exp(-A_f).  The trace must be real up
    to rounding; the residual imaginary part is asserted then discarded.
    """
    return _efficacy_blocks([protocol], [1.0])


def _efficacy_blocks(protocols: Sequence[TwoTimeProtocol], weights: Sequence[float]) -> float:
    """Efficacy of a direct sum of protocols: the weights[j]-weighted sum
    of the block traces, whose imaginary residue is checked once."""
    value = 0j
    for protocol, weight in zip(protocols, weights):
        a_i = protocol.initial_observable
        rho_m = measurement_channel(protocol.initial_state, a_i.measurement())
        weighted = apply_channel(protocol.channel, rho_m @ a_i.exp_pos())
        # tr(X Y) as an elementwise sum, without forming X Y
        value += weight * complex(np.sum(protocol.final_observable.exp_neg().T * weighted))
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


def gibbs_state(
    h, beta: float, tol: Tolerances = DEFAULT_TOLS
) -> tuple[np.ndarray, float, float]:
    """Thermal state exp(-beta H)/Z and Z as (z, shift) with Z = z e^shift.

    Beyond |beta E_min| = _EXP_LIMIT / 4 the weights are shifted by the
    ground energy, shift = -beta E_min, so they lie in (0, 1]; within it
    shift = 0, z = Z, and both partition functions and their ratio are
    finite doubles.
    """
    dec = spectral_decompose(h, tol)
    lowest = beta * float(dec.values[0])
    shift = -lowest if abs(lowest) > _EXP_LIMIT / 4 else 0.0
    weights = np.exp(-beta * dec.values - shift)
    z = float(weights.sum())
    return (dec.vectors * (weights / z)) @ dec.vectors.conj().T, z, shift


def _scaled(mantissa: float, shift: float, what: str) -> float:
    """mantissa * e^shift, which must be a finite positive double."""
    log_value = shift + math.log(mantissa)
    if abs(log_value) >= _EXP_LIMIT:
        raise ValidationError(f"{what} = exp({log_value!r}) is not a finite positive double")
    return math.exp(log_value) if shift else mantissa


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
    rho0, z0_scaled, shift0 = gibbs_state(h0, beta, tolerances)
    _, z_tau_scaled, shift_tau = gibbs_state(h_tau, beta, tolerances)
    z0 = _scaled(z0_scaled, shift0, "Z_0")
    z_tau = _scaled(z_tau_scaled, shift_tau, "Z_tau")
    z_ratio = _scaled(z_tau_scaled / z0_scaled, shift_tau - shift0, "Z_tau/Z_0")
    # dF = -(ln Z_tau - ln Z_0) / beta
    delta_f = -(math.log(z_tau_scaled / z0_scaled) + (shift_tau - shift0)) / beta
    two_time = TwoTimeProtocol.create(
        rho0,
        observable_from_hermitian(beta * h0, tolerances),
        unitary_from_protocol(protocol, tolerances),
        observable_from_hermitian(beta * h_tau, tolerances),
        tolerances,
    )
    ft = verify_ft(two_time, tolerances=tolerances)
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
