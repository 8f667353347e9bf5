"""Classical-quantum channel analysis: mutual information, the Holevo
quantity, and the measurement-dependent sharpening of the Holevo bound.

The sharpening comes from running the two-time measurement engine on a
composite encoding (x) probe (x) message space, a direct sum over the
message register that is solved word by word: the mean outcome
difference equals chi - I and the fluctuation identity supplies a
correction term -ln(gamma) >= 0, with gamma computed both by exact outcome
enumeration and by the trace formula.  A trace-inequality chain
certifies -ln(gamma) >= 0 step by step, and an operator residual
quantifies how far an instance is from saturating the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
    normalized_blocks,
    povm_from_blocks,
    random_density_matrix,
    random_povm,
    random_pure_state,
)
from .ttm import (
    TwoTimeProtocol,
    _efficacy_blocks,
    _joint_blocks,
    _merge_atoms,
    exponential_average,
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


def holevo_chi(ensemble: Ensemble, tol: Tolerances = DEFAULT_TOLS) -> float:
    """Entropy of the average state minus the average state entropy (nats)."""
    chi = von_neumann_entropy(ensemble.average_state(), tol)
    for p, rho in zip(ensemble.priors, ensemble.states):
        chi -= p * von_neumann_entropy(rho, tol)
    return float(chi)


@dataclass(frozen=True, eq=False)
class HolevoInternals:
    """Everything the per-word composite construction produces, kept for
    the chain diagnostic and the equality residual."""

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
    block_exps: tuple[np.ndarray, ...]  # per-word compressed exponentials on encoding (x) probe
    protocols: tuple[TwoTimeProtocol, ...]  # per word: rho_j (x) |0><0|, A_i, identity, A_f


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


def prepare_instance(
    inst: CqChannelInstance,
    tol: Tolerances = DEFAULT_TOLS,
    dilation: NaimarkDilation | None = None,
) -> HolevoInternals:
    """Dilate the POVM and assemble each word's composite protocol."""
    if dilation is None:
        dilation = naimark_dilate(inst.povm, tol)
    elif dilation.encoding_dim != inst.ensemble.dim or dilation.probe_dim != inst.povm.n_outcomes:
        raise ValidationError("provided dilation does not match the instance POVM")
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
        block_exps.append(compressed_exp(exponent, n_j, tol))

    # Built without TwoTimeProtocol.create, whose state check would repeat
    # Ensemble.create's; every part is d*K-dimensional and A_i is finite.
    channel = identity_channel(d * kp)
    protocols = tuple(
        TwoTimeProtocol(
            kron(rho, probe),
            observable_from_hermitian(kron(-pseudo_log(rho, tol), probe), tol),
            channel,
            _observable_from_neg_exp(w_j, tol),
        )
        for rho, w_j in zip(ensemble.states, block_exps)
    )

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
        block_exps=tuple(block_exps),
        protocols=protocols,
    )


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
) -> tuple[float, float]:
    """Operator defect of the saturation condition, max over words, and
    the largest overlap of a dropped outcome with a word's support.

    For each word the pseudo-log of the state, the restricted pseudo-log
    of the average state, the information-weighted POVM elements and
    ln(gamma) must cancel on the state's support; the max-norm of the
    remainder is the defect.  Near-zero certifies saturation of the
    sharpened bound.  An overlap above 1e-8 means prob_floor is too large
    for the instance, and the defect misses that outcome's term.
    """
    tol = tol or internals.tolerances
    log_gamma = math.log(gamma)
    log_bar = pseudo_log(internals.rho_bar, tol)
    worst = overlap = 0.0
    for j, rho in enumerate(internals.ensemble.states):
        p_j, _ = support_projector(rho, tol)
        inner = pseudo_log(rho, tol) - log_bar + log_gamma * np.eye(rho.shape[0])
        for k, m_k in enumerate(internals.povm_elements):
            if internals.retained[j, k]:
                inner = inner - internals.info_terms[j, k] * m_k
            else:
                overlap = max(overlap, max_abs(m_k @ p_j))
        worst = max(worst, max_abs(p_j @ inner @ p_j))
    return worst, overlap


def analyze(
    inst: CqChannelInstance,
    tol: Tolerances = DEFAULT_TOLS,
    identity_tol: float = 1e-8,
    strict: bool = True,
    dilation: NaimarkDilation | None = None,
) -> HolevoReport:
    """Full sharpened-bound analysis of a classical-quantum instance.

    Dilates the POVM, builds the composite construction, and runs the
    two-time engine with the identity channel per word, on encoding (x)
    probe: the composite is a direct sum over the message register.  The
    efficacy comes by the enumeration route (the prior-weighted outcome
    pairs of all words merged into one set of atoms) and by the trace
    route (the prior-weighted sum), and every bound, chain and residual is
    evaluated.  With strict=True any failed cross-check raises
    ConsistencyError; otherwise failures are recorded in the report's checks.
    """
    internals = prepare_instance(inst, tol, dilation)
    priors = internals.ensemble.priors
    info = _mutual_information_arrays(priors, internals.cond, tol.prob_floor)
    shannon, conditional = _decomposition_arrays(priors, internals.cond, tol.prob_floor)
    chi = holevo_chi(internals.ensemble, tol)

    delta = _merge_atoms(_joint_blocks(internals.protocols, priors, tol), tol)
    gamma_dist = exponential_average(delta)
    mean = mean_delta_a(delta)
    gamma_trace = _efficacy_blocks(internals.protocols, priors)
    if gamma_trace <= 0:
        raise ConsistencyError(f"efficacy {gamma_trace!r} is not positive")
    gamma = gamma_trace
    neg_log_gamma = -math.log(gamma)
    bound_slack = (chi - info) - neg_log_gamma
    route_error = abs(gamma_dist - gamma_trace)

    chain = gt_chain(internals, gamma, chain_tol=identity_tol, strict=False)
    residual, dropped_overlap = equality_residual(internals, gamma)

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
        Check("dropped_outcome_overlap", dropped_overlap, 1e-8, dropped_overlap <= 1e-8),
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


# The ascent's step rule and stopping rule: the step size starts at 1,
# doubles after a step that raises I and halves after one that does not;
# a start has converged once the step size falls below ASCENT_MIN_STEP,
# and it is cut after ASCENT_MAX_STEPS steps.  ASCENT_STARTS Gaussian
# block sets are ascended, so one poor start does not decide the result.
ASCENT_MIN_STEP = 1e-12
ASCENT_MAX_STEPS = 500
ASCENT_STARTS = 4


def _ascend(
    blocks: np.ndarray, ensemble: Ensemble, prob_floor: float
) -> tuple[float, np.ndarray | None]:
    """Fixed-point accessible-information ascent from one block set.

    With normalized blocks (sum_k B_k† B_k = I) the POVM is M_k = B_k† B_k.
    A step is B_k <- B_k (I + eps R_k), renormalized, where
    R_k = sum_j p_j ln(p(k|j)/p(k)) rho_j over the retained entries is the
    gradient of I in M_k (Rehacek, Englert and Kaszlikowski, PRA 71,
    054303, 2005).  A step that does not raise I, or whose normalizer is
    singular, is rejected, so I never decreases and the step size shrinks
    below ASCENT_MIN_STEP only where no step raises I.
    """
    states = np.asarray(ensemble.states)
    priors = ensemble.priors
    floor = ensemble.dim * 1e-14

    def info_and_gradients(b: np.ndarray) -> tuple[float, np.ndarray]:
        grams = b.conj().transpose(0, 2, 1) @ b
        cond = np.clip(np.einsum("jab,kba->jk", states, grams).real, 0.0, None)
        retained = cond > prob_floor
        terms = np.zeros_like(cond)
        terms[retained] = np.log(cond[retained] / np.broadcast_to(priors @ cond, cond.shape)[retained])
        gradients = np.einsum("j,jk,jab->kab", priors, terms, states)
        return _mutual_information_arrays(priors, cond, prob_floor), gradients

    current = normalized_blocks(blocks, floor)
    if current is None:
        return -math.inf, None
    info, gradients = info_and_gradients(current)
    step = 1.0
    for _ in range(ASCENT_MAX_STEPS):
        if step < ASCENT_MIN_STEP:
            break
        proposal = normalized_blocks(current + step * current @ gradients, floor)
        if proposal is None:
            step /= 2
            continue
        value, proposal_gradients = info_and_gradients(proposal)
        if value <= info:
            step /= 2
            continue
        current, info, gradients = proposal, value, proposal_gradients
        step *= 2
    return info, current


def optimize_measurement(
    ensemble: Ensemble,
    n_outcomes: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLS,
) -> tuple[POVM, float]:
    """Search for the n_outcomes-element POVM that maximizes I.

    Runs the fixed-point ascent of _ascend from ASCENT_STARTS Gaussian
    block sets drawn from default_rng(seed) and, when n_outcomes >= dim,
    also from the eigenbasis of the leading state difference (a projective
    guess); the best result is kept.  Returns the POVM and its achieved
    mutual information; no global optimality is claimed.
    """
    if n_outcomes < 2:
        raise ValidationError("measurement optimization needs at least 2 outcomes")
    d, states = ensemble.dim, ensemble.states
    rng = np.random.default_rng(seed)
    starts = [
        np.array([complex_gaussian(rng, (d, d)) for _ in range(n_outcomes)])
        for _ in range(ASCENT_STARTS)
    ]
    if n_outcomes >= d:
        contrast = states[0] - states[1] if len(states) > 1 else ensemble.average_state()
        _, vectors = np.linalg.eigh(contrast)
        guess = np.zeros((n_outcomes, d, d), dtype=complex)
        for i in range(d):
            guess[i] = np.outer(vectors[:, i], vectors[:, i].conj())
        starts.append(guess)
    best_info, best_blocks = -math.inf, None
    for blocks in starts:
        info, ascended = _ascend(blocks, ensemble, tol.prob_floor)
        if info > best_info:
            best_info, best_blocks = info, ascended
    if best_blocks is None:
        raise ConsistencyError("every start of the measurement ascent has a singular normalizer")
    povm = povm_from_blocks(best_blocks, tol)
    achieved = mutual_information(
        CqChannelInstance.create(ensemble, povm), tol
    )
    return povm, achieved
