"""Two-time measurement engine.

Measure an initial observable, evolve through a channel, measure a final
observable: the outcome difference is a random variable whose exponential
average equals a trace formula (the efficacy).  This module computes the
joint outcome statistics, the difference distribution, the efficacy,
and verifies the integral
fluctuation identity together with its Jensen consequence.  The Gibbs /
work special case is provided as a scenario builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    EvolutionProtocol,
    KrausChannel,
    apply_channel,
    _kraus_chunks,
    _unitary,
)
from .errors import ConsistencyError, IllPosedProtocolError, ValidationError
from .measurement import (
    _EXP_LIMIT,
    ExtendedObservable,
    _column_exp,
    _dephased,
    _observables,
)
from .operator_core import (
    ALGEBRA_TOL,
    DEFAULT_TOLS,
    Tolerances,
    as_matrix,
    require_density_matrix,
    _checked_eigh,
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
    ) -> "TwoTimeProtocol":
        """A checked state, one dimension throughout, finite A_i."""
        rho = require_density_matrix(initial_state)
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


# Check thresholds.  The fluctuation identity <exp(-delta_a)> = gamma of one
# protocol is held to FT_IDENTITY_TOL relative to gamma, and the Jarzynski
# identity to CHECK_TOL relative to Z_tau/Z_0, so no verdict depends on the
# energy zero.  CHECK_TOL also holds the Jensen and maximum-work bounds, and
# the route, mean, bound and chain checks of holevo.analyze.
FT_IDENTITY_TOL = 1e-9
CHECK_TOL = 1e-8


@dataclass(frozen=True)
class Check:
    """One named assertion with its measured value and threshold."""

    name: str
    value: float
    threshold: float
    passed: bool

    @classmethod
    def at_most(cls, name: str, value: float, threshold: float) -> "Check":
        """Passes when value <= threshold."""
        return cls(name, float(value), float(threshold), bool(value <= threshold))

    @classmethod
    def at_least(cls, name: str, value: float, threshold: float) -> "Check":
        """Passes when value >= threshold."""
        return cls(name, float(value), float(threshold), bool(value >= threshold))


class _Checked:
    """A report whose verdict is the conjunction of its checks."""

    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class FtReport(_Checked):
    """Fluctuation-theorem verification: exponential average vs. trace
    formula, and the Jensen bound.  Its checks are fluctuation_identity
    (identity_error at most FT_IDENTITY_TOL) and jensen_bound (jensen_slack
    at least -CHECK_TOL).  Failure is a report outcome, not an exception."""

    lhs: float                # <exp(-delta_a)> from the distribution
    gamma: float              # trace-formula efficacy
    mean_delta_a: float
    jensen_slack: float       # <delta_a> + ln(gamma)
    identity_error: float     # |lhs - gamma| / gamma
    max_violation: float
    atoms: tuple[tuple[float, float], ...]  # merged delta_a distribution
    checks: tuple[Check, ...]

    @property
    def identity_tol(self) -> float:
        """Threshold of the fluctuation_identity check."""
        return FT_IDENTITY_TOL


def joint_distribution(
    protocol: TwoTimeProtocol, tol: Tolerances = DEFAULT_TOLS
) -> JointDistribution:
    """Joint probabilities p[m, n] = tr(Pi_n^f E(Pi_m^i rho Pi_m^i)),
    from one pass over the channel's Kraus operators (see _joint_blocks).

    Raises IllPosedProtocolError when a final +infinity branch receives
    probability above prob_floor.
    """
    return _joint_blocks([protocol], [1.0], tol)[0]


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """One array as it is, or several stacked on a leading block axis: a
    single protocol keeps 2-D arrays, with no block axis."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _columns(
    observables: Sequence[ExtendedObservable],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns V of one observable, (d, d), or of several stacked on a
    leading block axis; the branch label of each column, (d,) or (J, d),
    distinct across the blocks; the first column of each branch in the
    flattened labels; and the branch values, indexed by label."""
    d = observables[0].dim
    starts = np.array([j * d + a for j, obs in enumerate(observables) for a in obs.offsets[:-1]])
    vectors = _stack([obs.vectors for obs in observables])
    # a column's label counts the branch starts before or at it, less one
    labels = np.searchsorted(starts, np.arange(len(observables) * d), side="right") - 1
    values = np.array([v for obs in observables for v in obs.values])
    return vectors, labels.reshape(vectors.shape[:-1]), starts, values


def _shared_channel(protocols: Sequence[TwoTimeProtocol]) -> KrausChannel:
    """The channel of every block of a direct sum: the same Kraus operators."""
    ops = protocols[0].channel.kraus_ops
    for p in protocols[1:]:
        other = p.channel.kraus_ops
        if other is not ops and (len(other) != len(ops) or not all(map(np.array_equal, other, ops))):
            raise ValidationError("the blocks of a direct sum must share one channel")
    return protocols[0].channel


def _joint_blocks(
    protocols: Sequence[TwoTimeProtocol], weights: Sequence[float], tol: Tolerances
) -> list[JointDistribution]:
    """Joint distributions of a direct sum of protocols that share one
    channel, block j weighted by weights[j].  With c the dephased state
    weight * V_i† rho V_i cut to its initial-branch diagonal blocks and
    T_k = V_f† K_k V_i, entry (j, a) of sum_k Re((T_k c) ∘ conj(T_k)) is
    initial column a's share of final column j: one pass over the Kraus
    operators, summed per branch.  This is the enumeration route's
    transition pass; it shares only the channel with the trace route.  The
    pass takes the dense remainder in bounded chunks (see
    channel._kraus_chunks): per chunk, K_k V_i for all k is one tall product
    of the stacked operators, and so is T_k c.  The channel's jumps enter in
    closed form: for K = alpha |a><b|, T_K[j, x] = alpha conj(V_f[a, j])
    V_i[b, x], so all of them add |V_f|²ᵀ W g with
    g[b, x] = Re((V_i c)[b, x] conj(V_i[b, x])).  The blocks are
    stacked on a leading axis, so c, each T_k and the marginal check run
    once for all of them; a single protocol has no block axis.  The
    weighted blocks are checked as one protocol: row sums equal to the
    initial marginals and a total of one, both within ALGEBRA_TOL, entries
    >= -prob_floor, and at most prob_floor on the +infinity final branches
    together."""
    channel = _shared_channel(protocols)
    v_i, labels, starts, _ = _columns([p.initial_observable for p in protocols])
    v_f_adj = _stack([p.final_observable.vectors for p in protocols]).conj().swapaxes(-1, -2)
    rho = _stack([p.initial_state for p in protocols])
    c = np.asarray(weights, dtype=float).reshape(labels.shape[:-1] + (1, 1)) * _dephased(
        v_i.conj().swapaxes(-1, -2) @ rho @ v_i, labels
    )
    d = channel.dim
    lead = c.shape[:-2]
    shares = 0.0
    for chunk in _kraus_chunks(channel._dense):
        n = len(chunk)
        # V_f† gets an axis for the operators of the chunk
        t = v_f_adj[..., None, :, :] @ (chunk.reshape(n * d, d) @ v_i).reshape(lead + (n, d, d))
        tc = t.reshape(lead + (n * d, d)) @ c
        shares += (tc.reshape(t.shape) * t.conj()).real.sum(axis=-3)
    if channel._jumps is not None:
        g = ((v_i @ c) * v_i.conj()).real
        shares += (np.abs(v_f_adj) ** 2) @ channel._jumps @ g
    marginals = np.add.reduceat(c.diagonal(axis1=-2, axis2=-1).real.ravel(), starts)
    rows = np.add.reduceat(shares.sum(axis=-2).ravel(), starts)
    off = np.abs(rows - marginals) > ALGEBRA_TOL
    if off.any():
        m = int(np.argmax(off))
        raise ConsistencyError(
            f"joint marginal over final outcomes {float(rows[m])!r} differs from "
            f"initial probability {float(marginals[m])!r}"
        )
    joints = []
    for block, protocol in zip(shares.reshape((-1,) + c.shape[-2:]), protocols):
        a_i, a_f = protocol.initial_observable, protocol.final_observable
        probs = np.add.reduceat(np.add.reduceat(block, a_i.offsets[:-1], axis=1), a_f.offsets[:-1], axis=0).T
        joints.append(JointDistribution(probs, np.array(a_i.values, dtype=float), np.array(a_f.values, dtype=float)))
    low = min(float(joint.probs.min()) for joint in joints)
    if low < -tol.prob_floor:
        raise ConsistencyError(f"joint probability {low:.3e} below -prob_floor")
    for joint in joints:
        np.clip(joint.probs, 0.0, None, out=joint.probs)
    total = sum(joint.total() for joint in joints)
    if abs(total - 1.0) > ALGEBRA_TOL:
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
    within degeneracy_tol * max(1, |v|) of its predecessor joins its cluster;
    the kept atoms must hold a mass of one within ALGEBRA_TOL."""
    values, probs = [], []
    for joint in joints:
        # only the last final branch can be +infinity
        n = len(joint.final_values) - math.isinf(joint.final_values[-1])
        values.append((joint.final_values[:n] - joint.initial_values[:, None]).ravel())
        probs.append(joint.probs[:, :n].ravel())
    values, probs = np.concatenate(values), np.concatenate(probs)
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    cuts = np.diff(values) > tol.degeneracy_tol * np.maximum(1.0, np.abs(values[1:]))
    starts = np.concatenate(([0], np.flatnonzero(cuts) + 1))
    totals = np.add.reduceat(probs, starts)
    moments = np.add.reduceat(values * probs, starts)
    kept = totals > tol.prob_floor
    mass = float(totals[kept].sum())
    if abs(mass - 1.0) > ALGEBRA_TOL:
        raise ConsistencyError(
            f"delta_a atoms sum to {mass!r} after dropping sub-floor atoms; "
            f"the instance carries pathological probability mass at the floor"
        )
    return DeltaDistribution(values=moments[kept] / totals[kept], probs=totals[kept])


def efficacy(protocol: TwoTimeProtocol) -> float:
    """Trace-formula efficacy tr(exp(-A_f) E(M_i(rho) exp(A_i))).

    Both exponentials are spectral over the finite branches; the +infinity
    branch of A_f is the kernel of exp(-A_f).  The trace must be real up
    to rounding; the residual imaginary part is asserted then discarded.
    """
    return _efficacy_blocks([protocol], [1.0])


def _efficacy_blocks(protocols: Sequence[TwoTimeProtocol], weights: Sequence[float]) -> float:
    """Efficacy of a direct sum of protocols that share one channel: the
    weights[j]-weighted sum of the block traces
    tr(exp(-A_f) E(M_i(rho) exp(A_i))), whose imaginary residue is checked
    once.  The blocks are stacked on a leading axis, so the dephasing, both
    exponentials, the channel and the traces run once for all of them; a
    single protocol keeps 2-D arrays.  The channel is apply_channel: two
    tall products per chunk of Kraus operators.  Both exponentials are
    spectral over the columns, with the +infinity branch of A_f mapped to
    the kernel of exp(-A_f); A_i must be finite and neither may overflow."""
    channel = _shared_channel(protocols)
    v_i, labels_i, _, a_i = _columns([p.initial_observable for p in protocols])
    v_f, labels_f, _, a_f = _columns([p.final_observable for p in protocols])
    v_i_adj = v_i.conj().swapaxes(-1, -2)
    rho = _stack([p.initial_state for p in protocols])
    # M_i(rho) exp(A_i) = V_i (c e^{a}) V_i†, with c = V_i† rho V_i dephased
    # and its columns scaled by e^{a}: the two exponentially spread factors
    # are never multiplied in the computational basis.
    c = _dephased(v_i_adj @ rho @ v_i, labels_i) * _column_exp(a_i, 1.0)[labels_i][..., None, :]
    weighted = apply_channel(channel, v_i @ c @ v_i_adj)
    exp_neg = (v_f * _column_exp(a_f, -1.0)[labels_f][..., None, :]) @ v_f.conj().swapaxes(-1, -2)
    # tr(X Y) as an elementwise sum, without forming X Y
    traces = np.sum(exp_neg.swapaxes(-1, -2) * weighted, axis=(-2, -1))
    value = complex(np.sum(np.asarray(weights, dtype=float).reshape(traces.shape) * traces))
    if abs(value.imag) > ALGEBRA_TOL * max(1.0, abs(value.real)):
        raise ConsistencyError(f"efficacy trace has imaginary residue {value.imag:.3e}")
    return float(value.real)


def exponential_average(delta: DeltaDistribution) -> float:
    """<exp(-delta_a)> computed by exact enumeration over the atoms."""
    return float(np.sum(delta.probs * np.exp(-delta.values)))


def mean_delta_a(delta: DeltaDistribution) -> float:
    return float(np.sum(delta.probs * delta.values))


def verify_ft(protocol: TwoTimeProtocol, tolerances: Tolerances = DEFAULT_TOLS) -> FtReport:
    """Check <exp(-delta_a)> = gamma and <delta_a> >= -ln(gamma), the
    checks fluctuation_identity and jensen_bound.

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
    identity_error = abs(lhs - gamma) / gamma
    jensen_slack = mean + math.log(gamma)
    return FtReport(
        lhs=lhs,
        gamma=gamma,
        mean_delta_a=mean,
        jensen_slack=jensen_slack,
        identity_error=identity_error,
        max_violation=max(identity_error, -min(jensen_slack, 0.0)),
        atoms=tuple(zip(delta.values.tolist(), delta.probs.tolist())),
        checks=(
            Check.at_most("fluctuation_identity", identity_error, FT_IDENTITY_TOL),
            Check.at_least("jensen_bound", jensen_slack, -CHECK_TOL),
        ),
    )


@dataclass(frozen=True)
class JarzynskiReport(_Checked):
    """Work-statistics summary of a Gibbs-initialized unitary protocol.  Its
    checks are jarzynski_identity, max_work and the checks of ft."""

    beta: float
    z0: float
    z_tau: float
    z_ratio: float
    delta_f: float              # -ln(Z_tau/Z_0) / beta
    mean_work: float            # <delta_a> / beta
    exp_neg_beta_work: float    # <exp(-beta W)>
    gamma: float
    identity_error: float       # |<exp(-beta W)> - Z_tau/Z_0| / (Z_tau/Z_0)
    max_work_slack: float       # beta <W> - beta dF
    ft: FtReport
    checks: tuple[Check, ...]


def _finite_exp(log_value: float, what: str) -> float:
    """e^log_value, which must be a finite positive double."""
    if not abs(log_value) < _EXP_LIMIT:
        raise ValidationError(f"{what} = exp({log_value!r}) is not a finite positive double")
    return math.exp(log_value)


def jarzynski_scenario(
    h0,
    protocol: EvolutionProtocol,
    beta: float,
    tolerances: Tolerances = DEFAULT_TOLS,
) -> tuple[TwoTimeProtocol, JarzynskiReport]:
    """Build the work-statistics special case and verify its identities.

    Initial Gibbs state of h0, energy observables scaled by beta at both
    ends, unitary evolution from the protocol, all from one eigh of h0 and
    the step Hamiltonians.  At each end w = exp(-beta (E - E_min)) lies in
    (0, 1], rho = V (w / s) V† with s = sum w, and ln Z = ln s - beta E_min.
    The report checks <exp(-beta W)> = Z_tau/Z_0 and the maximum work
    inequality beta <W> >= beta dF, both at CHECK_TOL, then the checks of
    verify_ft.
    """
    beta = float(beta)
    if not 0 < beta < math.inf:
        raise ValidationError(f"inverse temperature beta must be positive and finite, got {beta}")
    h0 = as_matrix(h0)
    if h0.shape[0] != protocol.dim:
        raise ValidationError(f"protocol dimensions disagree: {sorted({h0.shape[0], protocol.dim})}")
    hamiltonians, durations = zip(*protocol.steps)
    values, vectors = _checked_eigh(np.stack([h0, *hamiltonians]), "Hamiltonian")
    ends, end_vectors = values[[0, -1]], vectors[[0, -1]]
    (lo0, _), (lo_tau, _) = bounds = ends[:, [0, -1]].tolist()
    for lo, hi in bounds:
        # Python float products, which overflow to inf without a warning
        if not math.isfinite(beta * (hi - lo)) or not math.isfinite(beta * max(-lo, hi)):
            raise ValidationError(
                f"beta = {beta!r} with energies in [{lo!r}, {hi!r}]: beta * (E_max - E_min) "
                f"and beta * E must be finite doubles"
            )
    weights = np.exp(-beta * (ends - ends[:, :1]))
    s0, s_tau = weights.sum(axis=-1).tolist()
    z0 = _finite_exp(math.log(s0) - beta * lo0, "Z_0")
    z_tau = _finite_exp(math.log(s_tau) - beta * lo_tau, "Z_tau")
    # from the ratio of the shifted sums, so no term of size beta E_min cancels
    log_ratio = math.log(s_tau / s0) - beta * (lo_tau - lo0)
    z_ratio = _finite_exp(log_ratio, "Z_tau/Z_0")
    delta_f = -log_ratio / beta
    a_i, a_f = _observables(beta * ends, end_vectors, tolerances, lambda j: ("A_i", "A_f")[j])
    rho0 = (end_vectors[0] * (weights[0] / s0)) @ end_vectors[0].conj().T
    # Built without TwoTimeProtocol.create: rho0 is PSD with unit trace by
    # construction, every part is d-dimensional and A_i is finite.
    two_time = TwoTimeProtocol(
        rho0, a_i, KrausChannel.create([_unitary(values[1:], vectors[1:], durations)]), a_f
    )
    ft = verify_ft(two_time, tolerances=tolerances)
    mean_work = ft.mean_delta_a / beta
    identity_error = abs(ft.lhs - z_ratio) / z_ratio
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
        ft=ft,
        checks=(
            Check.at_most("jarzynski_identity", identity_error, CHECK_TOL),
            Check.at_least("max_work", max_work_slack, -CHECK_TOL),
            *ft.checks,
        ),
    )
    return two_time, report
