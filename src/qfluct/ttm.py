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
from functools import cached_property

import numpy as np

from .channel import (
    EvolutionProtocol,
    KrausChannel,
    apply_channel,
    _kraus_chunks,
    _unitary,
)
from .errors import ConsistencyError, IllPosedProtocolError, ValidationError
from .measurement import _EXP_LIMIT, ExtendedObservable, _Branches, _column_exp, _dephased, _grouped
from .operator_core import (
    ALGEBRA_TOL,
    DEFAULT_TOLS,
    Tolerances,
    as_matrix,
    require_density_matrix,
    _as_float,
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


@dataclass(frozen=True, eq=False)
class _WordBlocks:
    """A direct sum of two-time protocols that share one channel, in array
    form: the word blocks.  Block j has state states[j], weight weights[j]
    and the j-th observable of initial (finite) and final (+infinity
    allowed).  prepare_instance builds one block per code word; of() makes
    a stack of one from a TwoTimeProtocol, so one engine serves both."""

    states: np.ndarray  # (J, d, d)
    weights: np.ndarray  # (J,)
    channel: KrausChannel
    initial: _Branches
    final: _Branches

    @classmethod
    def of(cls, protocol: TwoTimeProtocol) -> "_WordBlocks":
        a_i, a_f = _Branches.of(protocol.initial_observable), _Branches.of(protocol.final_observable)
        return cls(protocol.initial_state[None], np.ones(1), protocol.channel, a_i, a_f)

    @cached_property
    def pairs(self) -> np.ndarray:
        """The outcome pair of each (final, initial) column entry, (J, d, d):
        with m and n counted from the block's first branch, pair (m, n) of
        block j is number m * N_j + n after the pairs of the blocks before."""
        local_i = self.initial.labels - self.initial.labels[:, :1]
        local_f = self.final.labels - self.final.labels[:, :1]
        width = local_f[:, -1:, None] + 1
        sizes = (local_i[:, -1] + 1) * width[:, 0, 0]
        return (np.cumsum(sizes) - sizes)[:, None, None] + local_i[:, None, :] * width + local_f[:, :, None]

    @cached_property
    def deltas(self) -> np.ndarray:
        """delta_a = a_n - a_m of every outcome pair, +infinity on a
        +infinity final branch, in the order of pairs."""
        a_i, a_f = self.initial, self.final
        deltas = np.empty(self.pairs[-1, -1, -1] + 1)
        deltas[self.pairs] = a_f.values[a_f.labels][..., :, None] - a_i.values[a_i.labels][..., None, :]
        return deltas


def joint_distribution(
    protocol: TwoTimeProtocol, tol: Tolerances = DEFAULT_TOLS
) -> JointDistribution:
    """Joint probabilities p[m, n] = tr(Pi_n^f E(Pi_m^i rho Pi_m^i)),
    from one pass over the channel's Kraus operators (see _joint_blocks).

    Raises IllPosedProtocolError when a final +infinity branch receives
    probability above prob_floor.
    """
    blocks = _WordBlocks.of(protocol)
    a_i, a_f = blocks.initial.values, blocks.final.values
    return JointDistribution(_joint_blocks(blocks, tol).reshape(a_i.size, a_f.size), a_i, a_f)


def _joint_blocks(blocks: _WordBlocks, tol: Tolerances) -> np.ndarray:
    """Weighted branch-pair probabilities of the word blocks, in the order
    of blocks.pairs: the enumeration route's transition pass, which shares
    only the channel with the trace route.  With c the dephased state
    weight * V_i† rho V_i and T_k = V_f† K_k V_i, entry (y, x) of
    sum_k Re((T_k c) ∘ conj(T_k)) is initial column x's share of final
    column y; one bincount sums the shares of all blocks per branch pair.
    The dense remainder runs in bounded chunks (see channel._kraus_chunks),
    each K_k V_i and T_k c one tall product of the chunk; the jumps
    alpha |a><b| add |V_f|²ᵀ W g with g = Re((V_i c) ∘ conj(V_i)) in closed
    form.  The weighted blocks are checked as one protocol: row sums equal
    to the initial marginals and a total of one, both within ALGEBRA_TOL,
    entries >= -prob_floor, and at most prob_floor on the +infinity final
    branches together."""
    channel, initial, final = blocks.channel, blocks.initial, blocks.final
    v_i = initial.vectors
    v_f_adj = final.vectors.conj().swapaxes(-1, -2)
    c = _dephased(v_i.conj().swapaxes(-1, -2) @ blocks.states @ v_i, initial.labels)
    c *= blocks.weights[:, None, None]
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
    labels = initial.labels.ravel()
    marginals = np.bincount(labels, c.diagonal(axis1=-2, axis2=-1).real.ravel())
    rows = np.bincount(labels, shares.sum(axis=-2).ravel())
    off = np.abs(rows - marginals) > ALGEBRA_TOL
    if off.any():
        m = int(np.argmax(off))
        raise ConsistencyError(
            f"joint marginal over final outcomes {float(rows[m])!r} differs from "
            f"initial probability {float(marginals[m])!r}"
        )
    probs = np.bincount(blocks.pairs.ravel(), shares.ravel(), blocks.deltas.size)
    low = float(probs.min())
    if low < -tol.prob_floor:
        raise ConsistencyError(f"joint probability {low:.3e} below -prob_floor")
    np.clip(probs, 0.0, None, out=probs)
    total = float(probs.sum())
    if abs(total - 1.0) > ALGEBRA_TOL:
        raise ConsistencyError(f"joint probabilities sum to {total!r}, not 1")
    leak = float(probs[np.isinf(blocks.deltas)].sum())
    if leak > tol.prob_floor:
        raise IllPosedProtocolError(
            f"the +infinity branch of the final observable has probability "
            f"{leak:.3e} > prob_floor; the protocol is ill-posed"
        )
    return probs


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
    deltas = joint.final_values - joint.initial_values[:, None]
    return _merge_atoms(deltas.ravel(), joint.probs.ravel(), tol)


def _merge_atoms(deltas: np.ndarray, probs: np.ndarray, tol: Tolerances) -> DeltaDistribution:
    """Atoms of delta_a over outcome pairs with values deltas and
    probabilities probs, the pairs of all word blocks in one clustering
    pass, so the sub-floor drop acts on the pooled mass; pairs at +infinity
    are left out.  A sorted value v within degeneracy_tol * max(1, |v|) of
    its predecessor joins its cluster; the kept atoms must hold a mass of
    one within ALGEBRA_TOL."""
    finite = np.isfinite(deltas)
    values, probs = deltas[finite], probs[finite]
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
    return _efficacy_blocks(_WordBlocks.of(protocol))


def _efficacy_blocks(blocks: _WordBlocks) -> float:
    """Efficacy of the word blocks: the weighted sum of the block traces
    tr(exp(-A_f) E(M_i(rho) exp(A_i))), whose imaginary residue is checked
    once.  The dephasing, both exponentials, the channel (apply_channel)
    and the traces run once on the stack.  Both exponentials are spectral
    over the columns, exp(-A_f) zero on the +infinity branch; A_i must be
    finite and neither may overflow."""
    initial, final = blocks.initial, blocks.final
    v_i, v_f = initial.vectors, final.vectors
    v_i_adj = v_i.conj().swapaxes(-1, -2)
    # M_i(rho) exp(A_i) = V_i (c e^{a}) V_i†, with c = V_i† rho V_i dephased
    # and its columns scaled by e^{a}: the two exponentially spread factors
    # are never multiplied in the computational basis.
    c = _dephased(v_i_adj @ blocks.states @ v_i, initial.labels)
    c = c * _column_exp(initial.values, 1.0)[initial.labels][..., None, :]
    weighted = apply_channel(blocks.channel, v_i @ c @ v_i_adj)
    exp_neg = (v_f * _column_exp(final.values, -1.0)[final.labels][:, None, :]) @ v_f.conj().swapaxes(-1, -2)
    # tr(X Y) as an elementwise sum, without forming X Y
    traces = np.sum(exp_neg.swapaxes(-1, -2) * weighted, axis=(-2, -1))
    value = complex(np.sum(blocks.weights * traces))
    if abs(value.imag) > ALGEBRA_TOL * max(1.0, abs(value.real)):
        raise ConsistencyError(f"efficacy trace has imaginary residue {value.imag:.3e}")
    return float(value.real)


def verify_ft(protocol: TwoTimeProtocol, tolerances: Tolerances = DEFAULT_TOLS) -> FtReport:
    """Check <exp(-delta_a)> = gamma and <delta_a> >= -ln(gamma), the
    checks fluctuation_identity and jensen_bound.

    The left side comes from exact enumeration of the outcome
    distribution, the right side from the trace formula; the two code
    paths share no intermediate results.
    """
    return _ft_report(_WordBlocks.of(protocol), tolerances)


def _ft_report(blocks: _WordBlocks, tol: Tolerances) -> FtReport:
    """verify_ft on word blocks: the enumeration route's merged atoms, with
    <exp(-delta_a)> and <delta_a> by exact enumeration over them, and the
    trace route's efficacy, which must be positive."""
    delta = _merge_atoms(blocks.deltas, _joint_blocks(blocks, tol), tol)
    lhs = float(np.sum(delta.probs * np.exp(-delta.values)))
    gamma = _efficacy_blocks(blocks)
    if gamma <= 0:
        raise ConsistencyError(f"efficacy {gamma!r} is not positive")
    mean = float(np.sum(delta.probs * delta.values))
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
    beta = _as_float(beta, "inverse temperature beta")
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
    observables = _grouped(beta * ends, end_vectors, tolerances, lambda j: ("A_i", "A_f")[j])
    a_i, a_f = observables.objects()
    rho0 = (end_vectors[0] * (weights[0] / s0)) @ end_vectors[0].conj().T
    channel = KrausChannel.create([_unitary(values[1:], vectors[1:], durations)])
    # Built without TwoTimeProtocol.create: rho0 is PSD with unit trace by
    # construction, every part is d-dimensional and A_i is finite.
    two_time = TwoTimeProtocol(rho0, a_i, channel, a_f)
    ft = _ft_report(_WordBlocks(rho0[None], np.ones(1), channel, *observables.split(1)), tolerances)
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
