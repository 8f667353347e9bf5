"""Classical-quantum channel analysis: mutual information, the Holevo
quantity, and the measurement-dependent sharpening of the Holevo bound.

The sharpening comes from running the two-time measurement engine on a
composite encoding (x) probe (x) message space: the mean outcome
difference equals chi - I and the fluctuation identity supplies a
correction term -ln(gamma) >= 0, with gamma computed both by exact outcome
enumeration and by the trace formula.  A trace-inequality chain
certifies -ln(gamma) >= 0 step by step, and an operator residual
quantifies how far an instance is from saturating the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channel import identity_channel
from .errors import ConsistencyError, ValidationError
from .measurement import (
    ExtendedObservable,
    NaimarkDilation,
    POVM,
    naimark_dilate,
    observable_from_hermitian,
)
from .operator_core import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    Tolerances,
    basis_projector,
    compressed_exp,
    group_eigenspaces,
    kron,
    max_abs,
    pseudo_log,
    require_density_matrix,
    spectral_decompose,
    support_projector,
    _support_cutoff,
)
from .rand import (
    complex_gaussian,
    normalized_grams,
    povm_from_blocks,
    random_density_matrix,
    random_povm,
    random_pure_state,
)
from .ttm import (
    TwoTimeProtocol,
    delta_a_distribution,
    efficacy,
    exponential_average,
    joint_distribution,
    mean_delta_a,
)


def von_neumann_entropy(rho, tol: Tolerances = DEFAULT_TOLS) -> float:
    """-tr(rho ln rho) in nats, with 0 ln 0 = 0."""
    w = np.linalg.eigvalsh(require_density_matrix(rho, tol))
    w = w[w > 0]
    return float(-np.sum(w * np.log(w)))


def shannon_entropy(probs: np.ndarray) -> float:
    """-sum p ln p in nats over the strictly positive entries."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Code words: strictly positive priors and their encoded states.

    Zero-prior words are stripped at construction; the retained priors
    must sum to one within 1e-12.
    """

    priors: np.ndarray
    states: tuple[np.ndarray, ...]

    @classmethod
    def create(cls, priors, states: Iterable, tol: Tolerances = DEFAULT_TOLS) -> "Ensemble":
        try:
            p = np.asarray(priors)
        except ValueError as exc:
            raise ValidationError(f"priors must be a flat list of real numbers: {exc}") from None
        if p.dtype.kind not in "iuf" or p.ndim != 1 or p.size == 0:
            raise ValidationError(
                f"priors must be a non-empty flat list of real numbers, got {p.tolist()!r}"
            )
        p = p.astype(float)
        if not np.all(np.isfinite(p)):
            raise ValidationError(f"priors must be finite, got {p.tolist()!r}")
        sts = [require_density_matrix(s, tol) for s in states]
        if len(sts) != p.shape[0]:
            raise ValidationError(f"got {p.shape[0]} priors for {len(sts)} states")
        if p.min() < -tol.prob_floor:
            raise ValidationError(f"negative prior {p.min()!r}")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValidationError(f"priors sum to {p.sum()!r}, not 1 within 1e-12")
        keep = p > tol.prob_floor
        p = p[keep]
        sts = [s for s, k in zip(sts, keep) if k]
        if not sts:
            raise ValidationError("all priors are zero")
        dim = sts[0].shape[0]
        if any(s.shape[0] != dim for s in sts):
            raise ValidationError("ensemble states have mixed dimensions")
        return cls(priors=p, states=tuple(sts))

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def n_words(self) -> int:
        return len(self.states)

    def average_state(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for p, s in zip(self.priors, self.states):
            out += p * s
        return out


@dataclass(frozen=True, eq=False)
class CqChannelInstance:
    """An ensemble together with the receiver's POVM."""

    ensemble: Ensemble
    povm: POVM

    @classmethod
    def create(cls, ensemble: Ensemble, povm: POVM) -> "CqChannelInstance":
        if ensemble.dim != povm.dim:
            raise ValidationError(
                f"dimension mismatch: ensemble {ensemble.dim}, POVM {povm.dim}"
            )
        return cls(ensemble=ensemble, povm=povm)


def conditional_probabilities(
    inst: CqChannelInstance, tol: Tolerances = DEFAULT_TOLS
) -> np.ndarray:
    """Matrix of outcome probabilities given the word, rows indexed by word.

    Rows must sum to one within 1e-10.
    """
    cond = np.zeros((inst.ensemble.n_words, inst.povm.n_outcomes))
    for j, rho in enumerate(inst.ensemble.states):
        row = np.array([float(np.trace(rho @ m).real) for m in inst.povm.elements])
        if row.min() < -tol.prob_floor:
            raise ValidationError(f"conditional probability {row.min():.3e} below -prob_floor")
        row = np.clip(row, 0.0, None)
        if abs(row.sum() - 1.0) > 1e-10:
            raise ConsistencyError(f"conditional row {j} sums to {row.sum()!r}")
        cond[j] = row
    return cond


def _mutual_information_arrays(
    priors: np.ndarray, cond: np.ndarray, prob_floor: float
) -> float:
    marginals = priors @ cond
    total = 0.0
    for j in range(cond.shape[0]):
        for k in range(cond.shape[1]):
            joint = priors[j] * cond[j, k]
            if cond[j, k] > prob_floor and joint > prob_floor:
                total += joint * math.log(cond[j, k] / marginals[k])
    return float(total)


def mutual_information(inst: CqChannelInstance, tol: Tolerances = DEFAULT_TOLS) -> float:
    """Classical mutual information (nats) between word and outcome."""
    cond = conditional_probabilities(inst, tol)
    return _mutual_information_arrays(inst.ensemble.priors, cond, tol.prob_floor)


def _decomposition_arrays(
    priors: np.ndarray, cond: np.ndarray, prob_floor: float
) -> tuple[float, float]:
    marginals = priors @ cond
    conditional = 0.0
    for k in range(cond.shape[1]):
        if marginals[k] <= prob_floor:
            continue
        for j in range(cond.shape[0]):
            posterior = cond[j, k] * priors[j] / marginals[k]
            if posterior > prob_floor:
                conditional += marginals[k] * posterior * math.log(posterior)
    return shannon_entropy(priors), float(conditional)


def mutual_information_decomposition(
    inst: CqChannelInstance, tol: Tolerances = DEFAULT_TOLS
) -> tuple[float, float]:
    """Split I into the word-entropy term and the (negative) conditional
    term via the posteriors; the two must sum to I within 1e-10."""
    cond = conditional_probabilities(inst, tol)
    return _decomposition_arrays(inst.ensemble.priors, cond, tol.prob_floor)


def holevo_chi(ensemble: Ensemble, tol: Tolerances = DEFAULT_TOLS) -> float:
    """Entropy of the average state minus the average state entropy (nats)."""
    chi = von_neumann_entropy(ensemble.average_state(), tol)
    for p, rho in zip(ensemble.priors, ensemble.states):
        chi -= p * von_neumann_entropy(rho, tol)
    return float(chi)


def build_joint_state(ensemble: Ensemble, dilation: NaimarkDilation) -> np.ndarray:
    """Composite state sum_j pi_j rho_j (x) |0><0| (x) |j><j| under the
    encoding (x) probe (x) message ordering."""
    if dilation.encoding_dim != ensemble.dim:
        raise ValidationError(
            f"dimension mismatch: ensemble {ensemble.dim}, dilation encoding "
            f"{dilation.encoding_dim}"
        )
    j_dim = ensemble.n_words
    probe = basis_projector(dilation.probe_dim, 0)
    dim = ensemble.dim * dilation.probe_dim * j_dim
    out = np.zeros((dim, dim), dtype=complex)
    for j, (p, rho) in enumerate(zip(ensemble.priors, ensemble.states)):
        out += p * kron(rho, probe, basis_projector(j_dim, j))
    return out


@dataclass(frozen=True, eq=False)
class HolevoInternals:
    """Everything the composite construction produces, kept for the chain
    diagnostic and the equality residual."""

    ensemble: Ensemble
    povm_elements: tuple[np.ndarray, ...]
    dilation: NaimarkDilation
    tolerances: Tolerances
    cond: np.ndarray            # (J, K) conditional probabilities
    marginals: np.ndarray       # (K,)
    info_terms: np.ndarray      # (J, K) ln(cond/marginal), 0 where dropped
    retained: np.ndarray        # (J, K) bool, cond > prob_floor
    rho_bar: np.ndarray
    rho_ep_bar: np.ndarray      # rho_bar (x) |0><0| on encoding (x) probe
    rho0: np.ndarray
    a_i: ExtendedObservable
    a_f: ExtendedObservable
    block_exps: tuple[np.ndarray, ...]  # per-word compressed exponentials on encoding (x) probe


def _observable_from_neg_exp(w: np.ndarray, tol: Tolerances) -> ExtendedObservable:
    """Recover the extended observable A from W = exp(-A): in-support
    eigenvalues mu map to branches -ln(mu), the kernel becomes the
    +infinity branch."""
    dec = spectral_decompose(w, tol)
    if dec.values[0] < -tol.psd_tol * max(1.0, abs(float(dec.values[-1]))):
        raise ConsistencyError(f"exp(-A) has negative eigenvalue {dec.values[0]:.3e}")
    mask = dec.values > _support_cutoff(dec.values, tol.rank_tol)
    branches: list[tuple[float, np.ndarray]] = []
    if mask.any():
        vals = -np.log(dec.values[mask])
        cols = dec.vectors[:, mask]
        order = np.argsort(vals)
        finite = SpectralDecomposition(values=vals[order], vectors=cols[:, order])
        branches.extend(group_eigenspaces(finite, tol.degeneracy_tol))
    if (~mask).any():
        branches.append((math.inf, dec.vectors[:, ~mask]))
    return ExtendedObservable.from_blocks(branches, tol)


def _assemble(
    inst: CqChannelInstance, dilation: NaimarkDilation, tol: Tolerances
) -> HolevoInternals:
    ensemble = inst.ensemble
    d, kp, jw = ensemble.dim, dilation.probe_dim, ensemble.n_words
    cond = conditional_probabilities(inst, tol)
    marginals = ensemble.priors @ cond
    retained = cond > tol.prob_floor
    for k in range(kp):
        if retained[:, k].any() and marginals[k] <= tol.prob_floor:
            raise ValidationError(
                f"inconsistent marginal: outcome {k} has probability {marginals[k]:.3e} "
                f"but a conditional probability above prob_floor"
            )
    info_terms = np.zeros((jw, kp))
    info_terms[retained] = np.log(cond[retained] / np.broadcast_to(marginals, cond.shape)[retained])

    rho_bar = ensemble.average_state()
    p_bar, _ = support_projector(rho_bar, tol)
    complement = np.eye(d) - p_bar
    for j, rho in enumerate(ensemble.states):
        leak = float(np.trace(complement @ rho @ complement).real)
        if leak > tol.psd_tol:
            raise ValidationError(
                f"state {j} leaks {leak:.3e} outside the support of the average state"
            )

    probe = basis_projector(kp, 0)
    rho_ep_bar = kron(rho_bar, probe)
    log_bar = pseudo_log(rho_ep_bar, tol)
    s_ep, _ = support_projector(rho_ep_bar, tol)
    n_outside = np.eye(d * kp) - s_ep

    projectors = dilation.projectors
    block_exps = []
    w_full = np.zeros((d * kp * jw, d * kp * jw), dtype=complex)
    for j in range(jw):
        exponent = log_bar.copy()
        suppress = n_outside.copy()
        for k in range(kp):
            if retained[j, k]:
                exponent = exponent + info_terms[j, k] * projectors[k]
            else:
                suppress = suppress + projectors[k]
        if max_abs(suppress) > tol.rank_tol:
            n_j, _ = support_projector(suppress, tol)
        else:
            n_j = np.zeros((d * kp, d * kp), dtype=complex)
        w_j = compressed_exp(exponent, n_j, tol)
        block_exps.append(w_j)
        w_full += kron(w_j, basis_projector(jw, j))

    a_f = _observable_from_neg_exp(w_full, tol)

    a_i_matrix = np.zeros_like(w_full)
    for j, rho in enumerate(ensemble.states):
        a_i_matrix += kron(-pseudo_log(rho, tol), probe, basis_projector(jw, j))
    a_i = observable_from_hermitian(a_i_matrix, tol)
    rho0 = build_joint_state(ensemble, dilation)

    return HolevoInternals(
        ensemble=ensemble,
        povm_elements=inst.povm.elements,
        dilation=dilation,
        tolerances=tol,
        cond=cond,
        marginals=marginals,
        info_terms=info_terms,
        retained=retained,
        rho_bar=rho_bar,
        rho_ep_bar=rho_ep_bar,
        rho0=rho0,
        a_i=a_i,
        a_f=a_f,
        block_exps=tuple(block_exps),
    )


def prepare_instance(
    inst: CqChannelInstance,
    tol: Tolerances = DEFAULT_TOLS,
    dilation: NaimarkDilation | None = None,
) -> HolevoInternals:
    """Dilate the POVM and assemble the composite state and observables."""
    if dilation is None:
        dilation = naimark_dilate(inst.povm, tol)
    elif dilation.encoding_dim != inst.ensemble.dim or dilation.probe_dim != inst.povm.n_outcomes:
        raise ValidationError("provided dilation does not match the instance POVM")
    return _assemble(inst, dilation, tol)


@dataclass(frozen=True)
class Check:
    """One named assertion with its measured value and threshold."""

    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ChainValues:
    """The trace-inequality chain gamma <= g1 <= g2 with g2 = 1."""

    gamma: float
    g1: float
    g2: float


@dataclass(frozen=True, eq=False)
class HolevoReport:
    """Scalar battery of the sharpened-bound analysis (all logs in nats)."""

    mutual_information: float
    chi: float
    shannon: float
    conditional_term: float
    gamma: float
    gamma_distribution: float
    gamma_trace: float
    neg_log_gamma: float
    mean_delta_a: float
    bound_slack: float          # (chi - I) - (-ln gamma)
    chain: ChainValues
    equality_residual: float
    route_error: float          # |gamma_distribution - gamma_trace|
    atoms: tuple[tuple[float, float], ...]  # merged delta_a distribution
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def gt_chain(
    internals: HolevoInternals,
    gamma: float,
    chain_tol: float = 1e-8,
    strict: bool = True,
) -> ChainValues:
    """Evaluate the inequality chain gamma <= g1 <= g2 and g2 = 1.

    g1 is the per-word trace of the compressed exponential of the combined
    exponent; g2 contracts the exponentials separately, which telescopes
    to exactly one.  A violation flags a construction or numerics bug and
    raises when strict.
    """
    tol = internals.tolerances
    priors = internals.ensemble.priors
    g1 = 0.0
    for j, w_j in enumerate(internals.block_exps):
        g1 += float(priors[j]) * float(np.trace(w_j).real)
    projectors = internals.dilation.projectors
    g2 = 0.0
    for j in range(internals.ensemble.n_words):
        ratio = np.zeros_like(internals.rho_ep_bar)
        for k in range(internals.dilation.probe_dim):
            if internals.retained[j, k]:
                ratio = ratio + (
                    internals.cond[j, k] / internals.marginals[k]
                ) * projectors[k]
        g2 += float(priors[j]) * float(np.trace(internals.rho_ep_bar @ ratio).real)
    chain = ChainValues(gamma=gamma, g1=g1, g2=g2)
    if strict:
        if gamma > g1 + chain_tol or g1 > g2 + chain_tol:
            raise ConsistencyError(
                f"inequality chain violated: gamma={gamma!r}, g1={g1!r}, g2={g2!r}"
            )
        if abs(g2 - 1.0) > 1e-9:
            raise ConsistencyError(f"chain endpoint g2={g2!r} differs from 1 beyond 1e-9")
    return chain


def equality_residual(
    internals: HolevoInternals, gamma: float, tol: Tolerances | None = None
) -> float:
    """Operator defect of the saturation condition, max over words.

    For each word the pseudo-log of the state, the restricted pseudo-log
    of the average state, the information-weighted POVM elements and
    ln(gamma) must cancel on the state's support; the max-norm of the
    remainder is returned.  Near-zero certifies saturation of the
    sharpened bound.
    """
    tol = tol or internals.tolerances
    log_gamma = math.log(gamma)
    log_bar = pseudo_log(internals.rho_bar, tol)
    worst = 0.0
    for j, rho in enumerate(internals.ensemble.states):
        p_j, _ = support_projector(rho, tol)
        inner = pseudo_log(rho, tol) - log_bar + log_gamma * np.eye(rho.shape[0])
        for k, m_k in enumerate(internals.povm_elements):
            if internals.retained[j, k]:
                inner = inner - internals.info_terms[j, k] * m_k
            else:
                overlap = max_abs(m_k @ p_j)
                if overlap > 1e-8:
                    raise ConsistencyError(
                        f"outcome {k} was dropped for word {j} (conditional probability "
                        f"below prob_floor) yet overlaps its support by {overlap:.3e}; "
                        f"prob_floor is too large for this instance"
                    )
        worst = max(worst, max_abs(p_j @ inner @ p_j))
    return worst


def analyze(
    inst: CqChannelInstance,
    tol: Tolerances = DEFAULT_TOLS,
    identity_tol: float = 1e-8,
    strict: bool = True,
    dilation: NaimarkDilation | None = None,
) -> HolevoReport:
    """Full sharpened-bound analysis of a classical-quantum instance.

    Dilates the POVM, builds the composite construction, runs the
    two-time engine with the identity channel, computes the efficacy by
    both the enumeration route and the trace route, and evaluates every
    bound, chain and residual.  With strict=True any failed cross-check
    raises ConsistencyError; otherwise failures are recorded in the
    report's checks.
    """
    internals = prepare_instance(inst, tol, dilation)
    priors = internals.ensemble.priors
    info = _mutual_information_arrays(priors, internals.cond, tol.prob_floor)
    shannon, conditional = _decomposition_arrays(priors, internals.cond, tol.prob_floor)
    chi = holevo_chi(internals.ensemble, tol)

    dim = internals.rho0.shape[0]
    protocol = TwoTimeProtocol.create(
        internals.rho0, internals.a_i, identity_channel(dim), internals.a_f, tol
    )
    joint = joint_distribution(protocol, tol)
    delta = delta_a_distribution(joint, tol)
    gamma_dist = exponential_average(delta)
    mean = mean_delta_a(delta)
    gamma_trace = efficacy(protocol)
    if gamma_trace <= 0:
        raise ConsistencyError(f"efficacy {gamma_trace!r} is not positive")
    gamma = gamma_trace
    neg_log_gamma = -math.log(gamma)
    bound_slack = (chi - info) - neg_log_gamma
    route_error = abs(gamma_dist - gamma_trace)

    chain = gt_chain(internals, gamma, chain_tol=identity_tol, strict=False)
    residual = equality_residual(internals, gamma)

    checks = (
        Check("route_agreement", route_error, identity_tol, route_error <= identity_tol),
        Check(
            "mean_identity",
            abs(mean - (chi - info)),
            identity_tol,
            abs(mean - (chi - info)) <= identity_tol,
        ),
        Check(
            "decomposition_identity",
            abs(shannon + conditional - info),
            1e-10,
            abs(shannon + conditional - info) <= 1e-10,
        ),
        Check("bound_slack_nonneg", bound_slack, -identity_tol, bound_slack >= -identity_tol),
        Check(
            "neg_log_gamma_nonneg",
            neg_log_gamma,
            -identity_tol,
            neg_log_gamma >= -identity_tol,
        ),
        Check("gamma_le_one", gamma, 1.0 + 1e-9, gamma <= 1.0 + 1e-9),
        Check(
            "chain_gamma_le_g1",
            chain.g1 - gamma,
            -identity_tol,
            chain.g1 - gamma >= -identity_tol,
        ),
        Check("chain_g1_le_g2", chain.g2 - chain.g1, -identity_tol, chain.g2 - chain.g1 >= -identity_tol),
        Check("chain_g2_is_one", abs(chain.g2 - 1.0), 1e-9, abs(chain.g2 - 1.0) <= 1e-9),
        Check("info_nonneg", info, -1e-9, info >= -1e-9),
        Check("chi_nonneg", chi, -1e-9, chi >= -1e-9),
        Check("info_le_shannon", shannon - info, -1e-9, shannon - info >= -1e-9),
    )
    report = HolevoReport(
        mutual_information=info,
        chi=chi,
        shannon=shannon,
        conditional_term=conditional,
        gamma=gamma,
        gamma_distribution=gamma_dist,
        gamma_trace=gamma_trace,
        neg_log_gamma=neg_log_gamma,
        mean_delta_a=mean,
        bound_slack=bound_slack,
        chain=chain,
        equality_residual=residual,
        route_error=route_error,
        atoms=tuple(zip(delta.values.tolist(), delta.probs.tolist())),
        checks=checks,
    )
    if strict and not report.passed:
        names = ", ".join(
            f"{c.name} (value {c.value!r}, threshold {c.threshold!r})" for c in report.failures()
        )
        raise ConsistencyError(
            f"analysis cross-checks failed: {names} "
            f"[gamma_distribution={gamma_dist!r}, gamma_trace={gamma_trace!r}]"
        )
    return report


STATE_KINDS = ("mixed", "pure", "rank_deficient", "mix")


def random_instance(
    dim: int,
    n_words: int,
    n_outcomes: int,
    seed: int,
    state_kind: str = "mixed",
    tol: Tolerances = DEFAULT_TOLS,
) -> CqChannelInstance:
    """Deterministic random instance: Dirichlet priors, Wishart-style
    states (optionally pure or rank-deficient), Gaussian-block POVM."""
    if dim < 1 or n_words < 1 or n_outcomes < 1:
        raise ValidationError("dim, n_words and n_outcomes must all be >= 1")
    if state_kind not in STATE_KINDS:
        raise ValidationError(f"unknown state kind {state_kind!r}; choose from {STATE_KINDS}")
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.ones(n_words))
    states = []
    for _ in range(n_words):
        kind = state_kind
        if kind == "mix":
            kind = STATE_KINDS[rng.integers(0, 3)]
        if kind == "pure":
            states.append(random_pure_state(dim, rng))
        elif kind == "rank_deficient" and dim > 1:
            states.append(random_density_matrix(dim, rng, rank=int(rng.integers(1, dim))))
        else:
            states.append(random_density_matrix(dim, rng))
    povm = random_povm(dim, n_outcomes, rng, tol)
    return CqChannelInstance.create(Ensemble.create(priors, states, tol), povm)


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs of the derivative-free measurement search."""

    restarts: int = 4
    iterations: int = 400
    initial_step: float = 0.5
    step_decay: float = 0.97
    seed: int = 0
    projective_init: bool = True


def _info_of_blocks(
    blocks: list[np.ndarray], states: Sequence[np.ndarray], priors: np.ndarray, prob_floor: float
) -> float:
    elements = normalized_grams(blocks, blocks[0].shape[0] * 1e-14)
    if elements is None:
        return -math.inf
    cond = np.zeros((len(states), len(elements)))
    for j, rho in enumerate(states):
        cond[j] = [max(float(np.trace(rho @ m).real), 0.0) for m in elements]
    return _mutual_information_arrays(priors, cond, prob_floor)


def optimize_measurement(
    ensemble: Ensemble,
    n_outcomes: int,
    config: OptimizeConfig = OptimizeConfig(),
    tol: Tolerances = DEFAULT_TOLS,
) -> tuple[POVM, float]:
    """Derivative-free ascent over POVM parameterizations.

    Random Gaussian perturbations of the block parameterization are
    accepted on mutual-information improvement, with a geometric step
    decay; restarts are independently seeded.  The first restart may start
    from the eigenbasis of the leading state difference (a projective
    guess) when the outcome count allows it.  Returns the best POVM found
    and its achieved mutual information; no global optimality is claimed.
    """
    if n_outcomes < 2:
        raise ValidationError("measurement optimization needs at least 2 outcomes")
    d = ensemble.dim
    states, priors = ensemble.states, ensemble.priors
    best_info = -math.inf
    best_blocks: list[np.ndarray] | None = None
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        if restart == 0 and config.projective_init and n_outcomes >= d:
            contrast = states[0] - states[1] if len(states) > 1 else ensemble.average_state()
            _, vectors = np.linalg.eigh(contrast)
            blocks = [
                np.outer(vectors[:, i], vectors[:, i].conj()) if i < d else np.zeros((d, d), dtype=complex)
                for i in range(n_outcomes)
            ]
        else:
            blocks = [complex_gaussian(rng, (d, d)) for _ in range(n_outcomes)]
        current = _info_of_blocks(blocks, states, priors, tol.prob_floor)
        if current > best_info:
            best_info, best_blocks = current, [b.copy() for b in blocks]
        step = config.initial_step
        for _ in range(config.iterations):
            proposal = [b + step * complex_gaussian(rng, (d, d)) for b in blocks]
            value = _info_of_blocks(proposal, states, priors, tol.prob_floor)
            if value > current:
                blocks, current = proposal, value
                if current > best_info:
                    best_info, best_blocks = current, [b.copy() for b in blocks]
            step *= config.step_decay
    assert best_blocks is not None
    povm = povm_from_blocks(best_blocks, tol)
    achieved = mutual_information(
        CqChannelInstance.create(ensemble, povm), tol
    )
    return povm, achieved
