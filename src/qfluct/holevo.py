"""Classical-quantum channel analysis: mutual information, the Holevo
quantity, and the measurement-dependent sharpening of the Holevo bound.

The sharpening comes from running the two-time measurement engine on a
composite encoding (x) probe (x) message space, a direct sum over the
message register whose words are solved as one batch on a leading word
axis.  The composite's state and observables vanish off probe |0>, so each
word runs on the encoding space alone.  The mean outcome difference equals chi - I and the fluctuation
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

from .channel import KrausChannel
from .errors import ConsistencyError, ValidationError
from .measurement import POVM, _grouped
from .operator_core import (
    ALGEBRA_TOL,
    DEFAULT_TOLS,
    SpectralDecomposition,
    Tolerances,
    as_matrix,
    spectral_decompose,
    _checked_eigh,
    _compressed_eigh,
    _density_spectrum,
    _integer,
    _max_abs_each,
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
from .ttm import CHECK_TOL, Check, _Checked, _WordBlocks, _ft_report


def _entropy(probs: np.ndarray) -> np.ndarray:
    """-sum p ln p in nats over the strictly positive entries of the last
    axis (..., n): a Shannon entropy, or a von Neumann entropy from a
    spectrum."""
    positive = probs > 0
    return -np.sum(np.where(positive, probs * np.log(probs, out=np.ones_like(probs), where=positive), 0.0), axis=-1)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Code words: strictly positive priors and their encoded states.

    Zero-prior words are stripped at construction; the retained priors
    must sum to one within 1e-12.  Every state, zero-prior ones included,
    must share one dimension and is checked in one pass over their stack;
    an error names the state by its input index.
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
            raise ValidationError(f"priors must be a non-empty flat list of real numbers, got {priors!r}")
        p = p.astype(float)
        if not np.all(np.isfinite(p)):
            raise ValidationError(f"priors must be finite, got {p.tolist()!r}")
        sts = [as_matrix(s) for s in states]
        if len(sts) != p.shape[0]:
            raise ValidationError(f"got {p.shape[0]} priors for {len(sts)} states")
        dim = sts[0].shape[0]
        if any(s.shape[0] != dim for s in sts):
            raise ValidationError("ensemble states have mixed dimensions")
        # one Hermiticity, PSD and trace pass over the stack names the state
        stack, _ = _density_spectrum(np.stack(sts), "state")
        if p.min() < -tol.prob_floor:
            raise ValidationError(f"negative prior {p.min()!r}")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValidationError(f"priors sum to {p.sum()!r}, not 1 within 1e-12")
        keep = p > tol.prob_floor
        if not keep.any():
            raise ValidationError("all priors are zero")
        return cls(priors=p[keep], states=tuple(stack[keep]))

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def n_words(self) -> int:
        return len(self.states)

    def average_state(self) -> np.ndarray:
        states = np.asarray(self.states, dtype=complex)
        return (self.priors @ states.reshape(len(states), -1)).reshape(states.shape[1:])


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
    """Matrix of outcome probabilities given the word, rows indexed by word:
    tr(rho_j M_k) for all pairs from one stacked product.

    Rows must sum to one within ALGEBRA_TOL.
    """
    states, elements = np.asarray(inst.ensemble.states), np.asarray(inst.povm.elements)
    cond = np.trace(states[:, None] @ elements, axis1=-2, axis2=-1).real
    lows = cond.min(axis=1)
    cond = np.clip(cond, 0.0, None)
    sums = cond.sum(axis=1)
    failed = (lows < -tol.prob_floor) | (np.abs(sums - 1.0) > ALGEBRA_TOL)
    if failed.any():
        j = int(np.argmax(failed))
        if lows[j] < -tol.prob_floor:
            raise ValidationError(f"conditional probability {lows[j]:.3e} of word {j} below -prob_floor")
        raise ConsistencyError(f"conditional row {j} sums to {float(sums[j])!r}")
    return cond


def _information_terms(priors: np.ndarray, cond: np.ndarray, prob_floor: float) -> np.ndarray:
    """ln(p(k|j)/p(k)) for conditionals cond of shape (..., J, K), 0 where
    cond <= prob_floor."""
    ratio = np.divide(cond, (priors @ cond)[..., None, :], out=np.ones_like(cond), where=cond > prob_floor)
    return np.log(ratio)


def _information(priors: np.ndarray, cond: np.ndarray, prob_floor: float) -> tuple[np.ndarray, np.ndarray]:
    """I in nats for conditionals cond of shape (..., J, K), with the
    leading shape, and the log-ratio terms of _information_terms it sums;
    only entries with cond and p_j cond above prob_floor count."""
    terms = _information_terms(priors, cond, prob_floor)
    joint = priors[:, None] * cond
    return np.sum(np.where(joint > prob_floor, joint * terms, 0.0), axis=(-2, -1)), terms


def mutual_information(inst: CqChannelInstance, tol: Tolerances = DEFAULT_TOLS) -> float:
    """Classical mutual information (nats) between word and outcome."""
    cond = conditional_probabilities(inst, tol)
    return float(_information(inst.ensemble.priors, cond, tol.prob_floor)[0])


def _decomposition_arrays(
    priors: np.ndarray, cond: np.ndarray, prob_floor: float
) -> tuple[float, float]:
    """H(p) and sum_jk p(k) p(j|k) ln p(j|k), over the outcomes whose
    marginal p(k) and the posteriors p(j|k) above prob_floor."""
    marginals = priors @ cond
    posterior = np.divide(
        cond * priors[:, None], marginals, out=np.zeros_like(cond), where=marginals > prob_floor
    )
    kept = posterior > prob_floor
    log_posterior = np.log(posterior, out=np.zeros_like(posterior), where=kept)
    terms = np.where(kept, marginals * posterior * log_posterior, 0.0)
    return float(_entropy(priors)), float(terms.sum())


def holevo_chi(ensemble: Ensemble) -> float:
    """Entropy of the average state minus the average state entropy (nats).

    One eigvalsh of the stack (rho_1 ... rho_J, rho_bar) with the checks
    of require_density_matrix batched; an error names the first failing
    state, and index J is the average state.  The spectra are this
    function's own, not those of prepare_instance, so analyze's
    mean_identity compares two computations.
    """
    return _chi(ensemble.priors, np.asarray(ensemble.states, dtype=complex), ensemble.average_state())


def _chi(priors: np.ndarray, states: np.ndarray, rho_bar: np.ndarray) -> float:
    """holevo_chi of the stacked states (J, d, d) and their average."""
    entropies = _entropy(_density_spectrum(np.concatenate([states, rho_bar[None]]))[1])
    return float(entropies[-1] - priors @ entropies[:-1])


@dataclass(frozen=True, eq=False)
class HolevoInternals:
    """Everything the per-word composite construction produces, kept for
    the chain diagnostic and the equality residual, which reuse its spectra.
    Each word is one of the word blocks on the encoding space: the
    composite's state and observables vanish off probe |0>, where the
    dilated projectors compress to the POVM elements.  Per-word arrays
    carry a leading word axis of length J.

    log_weights[j] holds ell = ln(lambda) of rho_j on the columns V of
    blocks.initial.vectors[j], -infinity on ker rho_j, so that
    rho_j = V diag(e^ell) V† and A_i = -ell on supp rho_j, 0 off it."""

    ensemble: Ensemble
    elements: np.ndarray        # (K, d, d) POVM elements
    cond: np.ndarray            # (J, K) conditional probabilities
    info_terms: np.ndarray      # (J, K) ln(cond/marginal), 0 where dropped
    retained: np.ndarray        # (J, K) bool, cond > prob_floor
    rho_bar: np.ndarray
    average_support: SpectralDecomposition  # rho_bar on supp rho_bar: r > 0 values, d x r columns
    log_weights: np.ndarray     # (J, d) ln lambda of rho_j on blocks.initial's columns, -inf off supp
    exp_traces: np.ndarray      # (J,) tr W_j, W_j = exp(-A_f) of word j
    blocks: _WordBlocks         # per word: rho_j, its prior, A_i and A_f; the identity channel


def prepare_instance(inst: CqChannelInstance, tol: Tolerances = DEFAULT_TOLS) -> HolevoInternals:
    """Assemble the word blocks from d x d spectra, all words at once.

    The composite's state rho_j (x) |0><0| and both observables vanish off
    probe |0>, where the dilated projectors compress to the POVM elements
    M_k, so each word runs on the encoding space.  With the states stacked
    on a leading axis, rho_bar is one product, the states one eigh, and
    every check (Hermiticity, reconstruction, orthonormality, PSD, support
    leak, |V†V - I| of each observable) runs once over the stack and names
    the failing word.  supp rho_bar is the span of the words' support
    columns, its rank cut at rank_tol times the top singular value of a
    thin SVD (full only while there are fewer columns than d, so the left
    factor is a complete d x d basis); there rho_bar has values
    lambda_bar > 0 on columns s_bar.  The exponent
    F_c = diag(ln lambda_bar) + sum_k info_jk s_bar† M_k s_bar (retained k)
    of the words that drop no outcome is one batched eigh; a word that
    drops one is compressed to the kernel of its dropped s_bar† M_k s_bar
    on its own, since that kernel's size is its own.  A_f = -w on s_bar v
    where e^w is on the support of W_j = exp(-A_f), and +infinity
    elsewhere; A_i is -ln(lambda) on rho_j's support, else 0.  One call
    groups both observables of all words into the blocks' branch arrays,
    sorting each row once, stably; the log-weights take the initial rows'
    order from it.
    """
    ensemble = inst.ensemble
    d, jw = ensemble.dim, ensemble.n_words
    states = np.asarray(ensemble.states, dtype=complex)
    elements = np.asarray(inst.povm.elements)
    cond = conditional_probabilities(inst, tol)
    marginals = ensemble.priors @ cond
    retained = cond > tol.prob_floor
    inconsistent = retained.any(axis=0) & (marginals <= tol.prob_floor)
    if inconsistent.any():
        k = int(np.argmax(inconsistent))
        raise ValidationError(
            f"inconsistent marginal: outcome {k} has probability {marginals[k]:.3e} "
            f"but a conditional probability above prob_floor"
        )
    info_terms = _information_terms(ensemble.priors, cond, tol.prob_floor)

    values, vectors = _checked_eigh(states, "state")
    support = _support_mask(values, tol, "code word state")
    # the words' support columns side by side, word by word
    columns = vectors.transpose(1, 0, 2)[:, support]
    span, singular, _ = np.linalg.svd(columns, full_matrices=columns.shape[1] < d)
    rank = int(np.count_nonzero(singular > tol.rank_tol * singular[0]))
    outside = span[:, rank:]
    leaks = np.einsum("ai,jab,bi->j", outside.conj(), states, outside).real
    leaking = leaks > ALGEBRA_TOL
    if leaking.any():
        j = int(np.argmax(leaking))
        raise ValidationError(f"state {j} leaks {leaks[j]:.3e} outside the support of the average state")
    rho_bar = (ensemble.priors @ states.reshape(jw, -1)).reshape(d, d)
    inner = spectral_decompose(span[:, :rank].conj().T @ rho_bar @ span[:, :rank])
    if inner.values[0] <= 0:
        raise ValidationError(f"the average state has eigenvalue {inner.values[0]:.3e} on its support")
    s_bar = span[:, :rank] @ inner.vectors
    compressed = s_bar.conj().T @ elements @ s_bar
    # info_terms is 0 on the dropped outcomes, so only retained ones add
    exponents = np.diag(np.log(inner.values)) + np.einsum("jk,kab->jab", info_terms, compressed)

    exp_traces = np.empty(jw)
    final_values = np.full((jw, d), math.inf)
    encoding = np.empty((jw, d, d), dtype=complex)
    encoding[:, :, rank:] = outside

    def place(words, w: np.ndarray, cols: np.ndarray) -> None:
        exp_traces[words] = np.exp(w).sum(axis=-1)
        finite = _support_mask(np.exp(w), tol, "exp(-A_f)")
        final_values[words, : w.shape[-1]] = np.where(finite, -w, math.inf)
        encoding[words, :, : w.shape[-1]] = s_bar @ cols

    dropping = ~retained.all(axis=1)
    full = np.flatnonzero(~dropping)
    if full.size:
        place(full, *_compressed_eigh(exponents[full], None, tol)[:2])
    for j in np.flatnonzero(dropping):
        w, cols, suppressed = _compressed_eigh(exponents[j], compressed[~retained[j]].sum(axis=0), tol)
        encoding[j, :, w.size : rank] = s_bar @ suppressed
        place(j, w, cols)
    logs = np.where(support, np.log(np.where(support, values, 1.0)), -math.inf)
    observables, order = _grouped(
        np.concatenate([np.where(support, -logs, 0.0), final_values]),
        np.concatenate([vectors, encoding]),
        tol,
        lambda i: f"{'A_i' if i < jw else 'A_f'} of word {i % jw}",
    )
    # ell on the initial columns, in the one stable A_i order of each word
    log_weights = np.take_along_axis(logs, order[:jw], axis=-1)
    # built without KrausChannel.create: it is complete by construction
    channel = KrausChannel(kraus_ops=(np.eye(d, dtype=complex),))
    blocks = _WordBlocks(states, ensemble.priors, channel, *observables.split(jw))

    return HolevoInternals(
        ensemble=ensemble,
        elements=elements,
        cond=cond,
        info_terms=info_terms,
        retained=retained,
        rho_bar=rho_bar,
        average_support=SpectralDecomposition(values=inner.values, vectors=s_bar),
        log_weights=log_weights,
        exp_traces=exp_traces,
        blocks=blocks,
    )


@dataclass(frozen=True)
class ChainValues:
    """g1 and g2 of the trace-inequality chain gamma <= g1 <= g2 = 1."""

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


def gt_chain(internals: HolevoInternals) -> ChainValues:
    """Evaluate g1 and g2 of the inequality chain gamma <= g1 <= g2 = 1.

    g1 = sum_j p_j tr W_j; g2 contracts the exponentials separately, which
    telescopes to exactly one.  g1 - gamma = sum_j p_j tr W_j P~_j(ker rho_j),
    with P~_j(ker rho_j) the probability that the backward process, started
    in W_j / tr W_j, lands in ker rho_j; so gamma = g1 for full-rank words.
    The values are returned, not judged: analyze's checks chain_gamma_le_g1,
    chain_g1_le_g2 and chain_g2_is_one judge them, and a violation there
    flags a construction or numerics bug.
    """
    priors, cond = internals.ensemble.priors, internals.cond
    g1 = float(priors @ internals.exp_traces)
    # tr((rho_bar (x) |0><0|) Pi_k) = tr(rho_bar M_k), all outcomes at once
    overlaps = np.einsum("ab,kba->k", internals.rho_bar, internals.elements).real
    ratios = np.divide(cond, priors @ cond, out=np.zeros_like(cond), where=internals.retained)
    g2 = float(priors @ ratios @ overlaps)
    return ChainValues(g1=g1, g2=g2)


def equality_residual(internals: HolevoInternals, gamma: float) -> tuple[float, float]:
    """Operator defect of the saturation condition, max over words, and
    the largest overlap of a dropped outcome with a word's support.

    For each word the log of the state on its support, the log of the
    average state on its support, the information-weighted POVM elements
    and ln(gamma) must cancel on the state's support; the max-norm of the
    remainder is the defect, evaluated for all words at once.  The word's
    log is V diag(ell) V† over blocks.initial's columns V and the
    log-weights ell, its support projector the same sum over the finite
    ell; the average state's log comes from average_support.  Near-zero
    certifies saturation of the sharpened bound.  The bound's slack,
    bound_slack = <delta_a> + ln(gamma), is a Jensen gap: it is zero
    exactly when delta_a is constant on the atoms of positive
    probability.  An overlap above 1e-8 means prob_floor is too large for
    the instance, and the defect misses that outcome's term.
    """
    bar = internals.average_support
    log_bar = (bar.vectors * np.log(bar.values)) @ bar.vectors.conj().T
    vectors, ell = internals.blocks.initial.vectors, internals.log_weights
    support = np.isfinite(ell)
    adj = vectors.conj().swapaxes(-1, -2)
    p = (vectors * support[:, None, :]) @ adj
    inner = (
        (vectors * np.where(support, ell, 0.0)[:, None, :]) @ adj
        - log_bar
        + math.log(gamma) * np.eye(len(log_bar))
        - np.einsum("jk,kab->jab", internals.info_terms, internals.elements)
    )
    worst = float(_max_abs_each(p @ inner @ p).max())
    overlaps = _max_abs_each(internals.elements @ p[:, None])
    return worst, float(np.max(overlaps, where=~internals.retained, initial=0.0))


def analyze(
    inst: CqChannelInstance,
    tol: Tolerances = DEFAULT_TOLS,
    strict: bool = True,
) -> HolevoReport:
    """Full sharpened-bound analysis of a classical-quantum instance.

    Builds the composite construction and runs the two-time engine with
    the identity channel on all words as one batch: the composite is a
    direct sum over the message register, and each word runs on the
    encoding space, since its state and observables vanish off probe |0>.
    The efficacy comes by the enumeration route (the prior-weighted outcome
    pairs of all words merged into one set of atoms) and by the trace route
    (the prior-weighted sum), and every bound, chain and residual is
    evaluated.  The report's checks
    hold the route, mean, bound and chain comparisons to CHECK_TOL, the
    decomposition identity to ALGEBRA_TOL and the rest to their own fixed
    thresholds.  With strict=True any failed check
    raises ConsistencyError; otherwise failures are recorded in the
    report's checks.
    """
    internals = prepare_instance(inst, tol)
    priors = internals.ensemble.priors
    info = float(_information(priors, internals.cond, tol.prob_floor)[0])
    shannon, conditional = _decomposition_arrays(priors, internals.cond, tol.prob_floor)
    chi = _chi(priors, internals.blocks.states, internals.rho_bar)

    ft = _ft_report(internals.blocks, tol)
    gamma_dist, gamma_trace, mean = ft.lhs, ft.gamma, ft.mean_delta_a
    gamma = gamma_trace
    neg_log_gamma = -math.log(gamma)
    bound_slack = (chi - info) - neg_log_gamma
    route_error = abs(gamma_dist - gamma_trace)

    chain = gt_chain(internals)
    residual, dropped_overlap = equality_residual(internals, gamma)

    checks = (
        Check.at_most("route_agreement", route_error, CHECK_TOL),
        Check.at_most("mean_identity", abs(mean - (chi - info)), CHECK_TOL),
        Check.at_most("decomposition_identity", abs(shannon + conditional - info), ALGEBRA_TOL),
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
        atoms=ft.atoms,
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
    dim, n_words, n_outcomes = (
        _integer(value, name, 1)
        for value, name in ((dim, "dim"), (n_words, "n_words"), (n_outcomes, "n_outcomes"))
    )
    if state_kind not in STATE_KINDS:
        raise ValidationError(f"unknown state kind {state_kind!r}; choose from {STATE_KINDS}")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
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
    povm = random_povm(dim, n_outcomes, rng)
    return CqChannelInstance.create(Ensemble.create(priors, states, tol), povm)


# The ascent's step rule and stopping rule.  Each start's step size eps
# begins at 1.  Every iteration tries the steps c * eps for c in
# ASCENT_STEP_FACTORS and takes the first best one when it raises I; the
# next eps is ASCENT_GROW times the step taken.  When no candidate raises
# I, eps is multiplied by ASCENT_SHRINK, so the next candidates are the
# three powers of two just below those tried.  A start has converged once
# eps falls below ASCENT_MIN_STEP, and every start is cut after
# ASCENT_MAX_STEPS iterations.  With the next eps set to the step taken
# rather than twice it, the trine's starts stop at the rounding floor
# before they are stationary, with |Lambda - Lambda†| near 1e-7 in Holevo's
# condition.  ASCENT_STARTS Gaussian block sets are ascended, so one poor
# start does not decide the result.
ASCENT_STEP_FACTORS = (0.5, 1.0, 2.0)
ASCENT_GROW = 2.0
ASCENT_SHRINK = 0.125
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
    054303, 2005).  Each iteration forms the candidates of the L live
    starts, one per factor of ASCENT_STEP_FACTORS, as one
    (L * len(ASCENT_STEP_FACTORS), K, d, d) array, normalizes and evaluates
    them once, and reuses the log-ratio terms of a taken candidate for its
    gradient.  A candidate whose normalizer is singular counts as I = -inf.
    A start takes its first best candidate only when that raises I, so I
    never decreases and the step size shrinks below ASCENT_MIN_STEP only
    where no step raises I.  Each start keeps its own step size, accept
    rule and exit, so it follows the path it would follow alone.  A start
    whose first normalizer is singular gets I = -inf and takes no steps.
    """
    states = np.asarray(ensemble.states)
    priors = ensemble.priors
    floor = ensemble.dim * 1e-14
    factors = np.array(ASCENT_STEP_FACTORS)

    def evaluate(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """I and the log-ratio terms of normalized block sets."""
        grams = b.conj().swapaxes(-1, -2) @ b
        cond = np.clip(np.einsum("jab,skba->sjk", states, grams).real, 0.0, None)
        return _information(priors, cond, prob_floor)

    def gradients(terms: np.ndarray) -> np.ndarray:
        return np.einsum("j,sjk,jab->skab", priors, terms, states)

    current, regular = normalized_blocks(starts, floor)
    info = np.full(len(current), -math.inf)
    grads = np.zeros_like(current)
    info[regular], terms = evaluate(current[regular])
    grads[regular] = gradients(terms)
    step = np.where(regular, 1.0, 0.0)
    for _ in range(ASCENT_MAX_STEPS):
        live = np.flatnonzero(step >= ASCENT_MIN_STEP)
        if live.size == 0:
            break
        b = current[live]
        tried = step[live, None] * factors
        moves = (b @ grads[live])[:, None]
        candidates = (b[:, None] + tried[..., None, None, None] * moves).reshape(-1, *b.shape[1:])
        proposal, regular = normalized_blocks(candidates, floor)
        value, terms = evaluate(proposal)
        value = np.where(regular, value, -math.inf).reshape(tried.shape)
        best = value.argmax(axis=1) + factors.size * np.arange(live.size)
        value, tried = value.ravel()[best], tried.ravel()[best]
        accept = value > info[live]
        moved, taken = live[accept], best[accept]
        current[moved], info[moved] = proposal[taken], value[accept]
        grads[moved] = gradients(terms[taken])
        step[live] = np.where(accept, ASCENT_GROW * tried, ASCENT_SHRINK * step[live])
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
    with its own step rule (three candidate steps per iteration); the first
    best result is kept.  Returns the POVM and its achieved mutual
    information; no global optimality is claimed.
    """
    if n_outcomes < 2:
        raise ValidationError("measurement optimization needs at least 2 outcomes")
    d, states = ensemble.dim, ensemble.states
    rng = np.random.default_rng(_integer(seed, "seed", 0))
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
    povm = povm_from_blocks(ascended[best])
    achieved = mutual_information(
        CqChannelInstance.create(ensemble, povm), tol
    )
    return povm, achieved
