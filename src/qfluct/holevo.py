"""Classical-quantum channel analysis: mutual information, the Holevo
quantity, and the measurement-dependent sharpening of the Holevo bound.

The sharpening comes from running the two-time measurement engine on a
composite encoding (x) probe (x) message space, a direct sum over the
message register that is solved word by word.  The composite's state and
observables vanish off probe |0>, so each word runs on the encoding space
alone.  The mean outcome difference equals chi - I and the fluctuation
identity supplies a correction term -ln(gamma) >= 0, with gamma computed
both by exact outcome enumeration and by the trace formula.  A
trace-inequality chain certifies -ln(gamma) >= 0 step by step, and an
operator residual quantifies how far an instance is from saturating the
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import identity_channel
from .errors import ConsistencyError, ValidationError
from .measurement import ExtendedObservable, POVM
from .operator_core import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    Tolerances,
    group_eigenspaces,
    max_abs,
    require_density_matrix,
    spectral_decompose,
    _compressed_eigh,
    _density_spectrum,
    _support_mask,
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
    CHECK_TOL,
    Check,
    TwoTimeProtocol,
    _Checked,
    _efficacy_blocks,
    _joint_blocks,
    _merge_atoms,
    exponential_average,
    mean_delta_a,
)


def von_neumann_entropy(rho, tol: Tolerances = DEFAULT_TOLS) -> float:
    """-tr(rho ln rho) in nats, with 0 ln 0 = 0."""
    w = _density_spectrum(rho, tol)[1]
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


def _information_terms(priors: np.ndarray, cond: np.ndarray, prob_floor: float) -> np.ndarray:
    """ln(p(k|j)/p(k)) for conditionals cond of shape (..., J, K), 0 where
    cond <= prob_floor."""
    ratio = np.divide(cond, (priors @ cond)[..., None, :], out=np.ones_like(cond), where=cond > prob_floor)
    return np.log(ratio)


def _mutual_information_arrays(priors: np.ndarray, cond: np.ndarray, prob_floor: float) -> np.ndarray:
    """I in nats for conditionals cond of shape (..., J, K), with the
    leading shape; only entries with cond and p_j cond above prob_floor count."""
    joint = priors[:, None] * cond
    terms = np.where(joint > prob_floor, joint * _information_terms(priors, cond, prob_floor), 0.0)
    return np.sum(terms, axis=(-2, -1))


def mutual_information(inst: CqChannelInstance, tol: Tolerances = DEFAULT_TOLS) -> float:
    """Classical mutual information (nats) between word and outcome."""
    cond = conditional_probabilities(inst, tol)
    return float(_mutual_information_arrays(inst.ensemble.priors, cond, tol.prob_floor))


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
    the chain diagnostic and the equality residual, which reuse its spectra.
    Each word's protocol acts on the encoding space: the composite's state
    and observables vanish off probe |0>, where the dilated projectors
    compress to the POVM elements."""

    ensemble: Ensemble
    povm_elements: tuple[np.ndarray, ...]
    tolerances: Tolerances
    cond: np.ndarray            # (J, K) conditional probabilities
    marginals: np.ndarray       # (K,)
    info_terms: np.ndarray      # (J, K) ln(cond/marginal), 0 where dropped
    retained: np.ndarray        # (J, K) bool, cond > prob_floor
    rho_bar: np.ndarray
    average_support: SpectralDecomposition  # rho_bar on supp rho_bar: r > 0 values, d x r columns
    word_supports: tuple[SpectralDecomposition, ...]  # each rho_j on its support
    exp_traces: np.ndarray      # (J,) tr W_j, W_j = exp(-A_f) of word j
    protocols: tuple[TwoTimeProtocol, ...]  # per word: rho_j, A_i, identity, A_f


def _observable(values: np.ndarray, vectors: np.ndarray, tol: Tolerances) -> ExtendedObservable:
    """The observable with value values[a] (+infinity allowed) on the
    column vectors[:, a]; finite values within degeneracy_tol share a branch."""
    finite = np.isfinite(values)
    order = np.argsort(values[finite], kind="stable")
    dec = SpectralDecomposition(values=values[finite][order], vectors=vectors[:, finite][:, order])
    branches = group_eigenspaces(dec, tol.degeneracy_tol)
    if not finite.all():
        branches.append((math.inf, vectors[:, ~finite]))
    return ExtendedObservable.from_blocks(branches, tol)


def prepare_instance(inst: CqChannelInstance, tol: Tolerances = DEFAULT_TOLS) -> HolevoInternals:
    """Assemble each word's protocol from d x d spectra.  The composite's
    state rho_j (x) |0><0| and both observables vanish off probe |0>, where
    the dilated projectors compress to the POVM elements M_k, so each word
    runs on the encoding space.  Each rho_j is decomposed once; supp rho_bar
    is the span of their support columns (rank cut by an SVD at rank_tol
    times the top singular value), where rho_bar has values lambda_bar > 0
    on columns s_bar.  One eigh of
    F_c = diag(ln lambda_bar) + sum_k info_jk s_bar† M_k s_bar (retained k),
    compressed to the kernel of the dropped s_bar† M_k s_bar, gives A_f = -w
    on s_bar v where e^w is on the support of W_j = exp(-A_f), and
    +infinity elsewhere.  A_i is -ln(lambda) on rho_j's support, else 0.
    """
    ensemble = inst.ensemble
    d, jw = ensemble.dim, ensemble.n_words
    cond = conditional_probabilities(inst, tol)
    marginals = ensemble.priors @ cond
    retained = cond > tol.prob_floor
    for k in range(inst.povm.n_outcomes):
        if retained[:, k].any() and marginals[k] <= tol.prob_floor:
            raise ValidationError(
                f"inconsistent marginal: outcome {k} has probability {marginals[k]:.3e} "
                f"but a conditional probability above prob_floor"
            )
    info_terms = _information_terms(ensemble.priors, cond, tol.prob_floor)

    spectra = [spectral_decompose(rho, tol) for rho in ensemble.states]
    masks = [_support_mask(dec.values, tol, "a code word state") for dec in spectra]
    supports = np.concatenate([dec.vectors[:, mask] for dec, mask in zip(spectra, masks)], axis=1)
    span, singular, _ = np.linalg.svd(supports)
    rank = int(np.count_nonzero(singular > tol.rank_tol * singular[0]))
    outside = span[:, rank:]
    for j, rho in enumerate(ensemble.states):
        leak = float(np.trace(outside.conj().T @ rho @ outside).real)
        if leak > tol.psd_tol:
            raise ValidationError(f"state {j} leaks {leak:.3e} outside the support of the average state")
    rho_bar = ensemble.average_state()
    inner = spectral_decompose(span[:, :rank].conj().T @ rho_bar @ span[:, :rank], tol)
    if inner.values[0] <= 0:
        raise ValidationError(f"the average state has eigenvalue {inner.values[0]:.3e} on its support")
    s_bar = span[:, :rank] @ inner.vectors
    compressed = [s_bar.conj().T @ m @ s_bar for m in inst.povm.elements]
    log_bar = np.diag(np.log(inner.values))

    channel = identity_channel(d)
    exp_traces, protocols = np.zeros(jw), []
    for j, (rho, dec, mask) in enumerate(zip(ensemble.states, spectra, masks)):
        exponent = log_bar + sum(info_terms[j, k] * compressed[k] for k in np.flatnonzero(retained[j]))
        dropped = [compressed[k] for k in np.flatnonzero(~retained[j])]
        w, cols, suppressed = _compressed_eigh(exponent, sum(dropped) if dropped else None, tol)
        exp_traces[j] = np.exp(w).sum()
        finite = _support_mask(np.exp(w), tol, "exp(-A_f)")
        values = np.concatenate([np.where(finite, -w, math.inf), np.full(d - w.size, math.inf)])
        encoding = np.concatenate([s_bar @ cols, s_bar @ suppressed, outside], axis=1)
        a_f = _observable(values, encoding, tol)
        neg_log = np.zeros(d)
        neg_log[mask] = -np.log(dec.values[mask])
        a_i = _observable(neg_log, dec.vectors, tol)
        # Built without TwoTimeProtocol.create, whose state check would repeat
        # Ensemble.create's; every part is d-dimensional and A_i is finite.
        protocols.append(TwoTimeProtocol(rho, a_i, channel, a_f))

    return HolevoInternals(
        ensemble=ensemble,
        povm_elements=inst.povm.elements,
        tolerances=tol,
        cond=cond,
        marginals=marginals,
        info_terms=info_terms,
        retained=retained,
        rho_bar=rho_bar,
        average_support=SpectralDecomposition(values=inner.values, vectors=s_bar),
        word_supports=tuple(
            SpectralDecomposition(values=dec.values[mask], vectors=dec.vectors[:, mask])
            for dec, mask in zip(spectra, masks)
        ),
        exp_traces=exp_traces,
        protocols=tuple(protocols),
    )


@dataclass(frozen=True)
class ChainValues:
    """The trace-inequality chain gamma <= g1 <= g2 with g2 = 1."""

    gamma: float
    g1: float
    g2: float


@dataclass(frozen=True, eq=False)
class HolevoReport(_Checked):
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


def gt_chain(internals: HolevoInternals, gamma: float) -> ChainValues:
    """Evaluate the inequality chain gamma <= g1 <= g2 and g2 = 1.

    g1 is the per-word trace of the compressed exponential of the combined
    exponent; g2 contracts the exponentials separately, which telescopes
    to exactly one.  The values are returned, not judged: analyze's checks
    chain_gamma_le_g1, chain_g1_le_g2 and chain_g2_is_one judge them, and a
    violation there flags a construction or numerics bug.
    """
    priors = internals.ensemble.priors
    g1 = float(priors @ internals.exp_traces)
    # tr((rho_bar (x) |0><0|) Pi_k) = tr(rho_bar M_k), once per outcome
    overlaps = np.array([np.trace(internals.rho_bar @ m).real for m in internals.povm_elements])
    ratios = np.divide(
        internals.cond, internals.marginals, out=np.zeros_like(internals.cond), where=internals.retained
    )
    g2 = float(priors @ ratios @ overlaps)
    return ChainValues(gamma=gamma, g1=g1, g2=g2)


def equality_residual(internals: HolevoInternals, gamma: float) -> tuple[float, float]:
    """Operator defect of the saturation condition, max over words, and
    the largest overlap of a dropped outcome with a word's support.

    For each word the log of the state on its support, the log of the
    average state on its support, the information-weighted POVM elements
    and ln(gamma) must cancel on the state's support; the max-norm of the
    remainder is the defect.  Both logs come from the spectra that
    prepare_instance keeps.  Near-zero certifies saturation of the
    sharpened bound.  An overlap above 1e-8 means prob_floor is too large
    for the instance, and the defect misses that outcome's term.
    """
    log_gamma = math.log(gamma)
    bar = internals.average_support
    log_bar = (bar.vectors * np.log(bar.values)) @ bar.vectors.conj().T
    eye, worst, overlap = np.eye(len(internals.rho_bar)), 0.0, 0.0
    for j, word in enumerate(internals.word_supports):
        p_j = word.vectors @ word.vectors.conj().T
        inner = (word.vectors * np.log(word.values)) @ word.vectors.conj().T - log_bar + log_gamma * eye
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
    strict: bool = True,
) -> HolevoReport:
    """Full sharpened-bound analysis of a classical-quantum instance.

    Builds the composite construction and runs the two-time engine with
    the identity channel per word: the composite is a direct sum over the
    message register, and each word runs on the encoding space, since its
    state and observables vanish off probe |0>.  The efficacy comes by the
    enumeration route (the prior-weighted outcome pairs of all words merged
    into one set of atoms) and by the trace route (the prior-weighted sum),
    and every bound, chain and residual is evaluated.  The report's checks
    hold the route, mean, bound and chain comparisons to CHECK_TOL and the
    rest to their own fixed thresholds.  With strict=True any failed check
    raises ConsistencyError; otherwise failures are recorded in the
    report's checks.
    """
    internals = prepare_instance(inst, tol)
    priors = internals.ensemble.priors
    info = float(_mutual_information_arrays(priors, internals.cond, tol.prob_floor))
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

    chain = gt_chain(internals, gamma)
    residual, dropped_overlap = equality_residual(internals, gamma)

    checks = (
        Check.at_most("route_agreement", route_error, CHECK_TOL),
        Check.at_most("mean_identity", abs(mean - (chi - info)), CHECK_TOL),
        Check.at_most("decomposition_identity", abs(shannon + conditional - info), 1e-10),
        Check.at_least("bound_slack_nonneg", bound_slack, -CHECK_TOL),
        Check.at_least("neg_log_gamma_nonneg", neg_log_gamma, -CHECK_TOL),
        Check.at_most("gamma_le_one", gamma, 1.0 + 1e-9),
        Check.at_least("chain_gamma_le_g1", chain.g1 - gamma, -CHECK_TOL),
        Check.at_least("chain_g1_le_g2", chain.g2 - chain.g1, -CHECK_TOL),
        Check.at_most("chain_g2_is_one", abs(chain.g2 - 1.0), 1e-9),
        Check.at_least("info_nonneg", info, -1e-9),
        Check.at_least("chi_nonneg", chi, -1e-9),
        Check.at_least("info_le_shannon", shannon - info, -1e-9),
        Check.at_most("dropped_outcome_overlap", dropped_overlap, 1e-8),
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


# The ascent's step rule and stopping rule: each start's step size begins
# at 1, doubles after a step that raises I and halves after one that does
# not; a start has converged once its step size falls below
# ASCENT_MIN_STEP, and every start is cut after ASCENT_MAX_STEPS steps.
# ASCENT_STARTS Gaussian block sets are ascended, so one poor start does
# not decide the result.
ASCENT_MIN_STEP = 1e-12
ASCENT_MAX_STEPS = 500
ASCENT_STARTS = 4


def _ascend(
    starts: np.ndarray, ensemble: Ensemble, prob_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point accessible-information ascent from S block sets
    (S, K, d, d) at once; returns each start's I, shape (S,), and its
    ascended blocks.

    With normalized blocks (sum_k B_k† B_k = I) the POVM is M_k = B_k† B_k.
    A step is B_k <- B_k (I + eps R_k), renormalized, where
    R_k = sum_j p_j ln(p(k|j)/p(k)) rho_j over the retained entries is the
    gradient of I in M_k (Rehacek, Englert and Kaszlikowski, PRA 71,
    054303, 2005).  A step that does not raise I, or whose normalizer is
    singular, is rejected, so I never decreases and the step size shrinks
    below ASCENT_MIN_STEP only where no step raises I.  The starts advance
    in lockstep, one batched iteration for all live starts, but each keeps
    its own step size, accept rule and exit, so it follows the path it
    would follow alone.  A start whose first normalizer is singular gets
    I = -inf and takes no steps.
    """
    states = np.asarray(ensemble.states)
    priors = ensemble.priors
    floor = ensemble.dim * 1e-14

    def conditionals(b: np.ndarray) -> np.ndarray:
        grams = b.conj().swapaxes(-1, -2) @ b
        return np.clip(np.einsum("jab,skba->sjk", states, grams).real, 0.0, None)

    def gradients(cond: np.ndarray) -> np.ndarray:
        return np.einsum("j,sjk,jab->skab", priors, _information_terms(priors, cond, prob_floor), states)

    current, regular = normalized_blocks(starts, floor)
    info = np.full(len(current), -math.inf)
    grads = np.zeros_like(current)
    cond = conditionals(current[regular])
    info[regular] = _mutual_information_arrays(priors, cond, prob_floor)
    grads[regular] = gradients(cond)
    step = np.where(regular, 1.0, 0.0)
    for _ in range(ASCENT_MAX_STEPS):
        live = np.flatnonzero(step >= ASCENT_MIN_STEP)
        if live.size == 0:
            break
        b = current[live]
        proposal, regular = normalized_blocks(b + step[live, None, None, None] * b @ grads[live], floor)
        cond = conditionals(proposal[regular])
        value = np.full(live.size, -math.inf)
        value[regular] = _mutual_information_arrays(priors, cond, prob_floor)
        accept = value > info[live]
        moved = live[accept]
        current[moved], info[moved] = proposal[accept], value[accept]
        grads[moved] = gradients(cond[accept[regular]])
        step[live] *= np.where(accept, 2.0, 0.5)
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
    guess).  The starts are ascended in lockstep by one _ascend call, each
    with its own step rule; the first best result is kept.  Returns the
    POVM and its achieved mutual information; no global optimality is
    claimed.
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
    infos, ascended = _ascend(np.array(starts), ensemble, tol.prob_floor)
    best = int(np.argmax(infos))
    if infos[best] == -math.inf:
        raise ConsistencyError("every start of the measurement ascent has a singular normalizer")
    povm = povm_from_blocks(ascended[best], tol)
    achieved = mutual_information(
        CqChannelInstance.create(ensemble, povm), tol
    )
    return povm, achieved
