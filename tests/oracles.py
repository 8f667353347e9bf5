"""Independent oracle implementations used to check library results.

Everything here is built directly on numpy/scipy primitives and stays
deliberately separate from the library's code paths: exponentials go
through scipy's expm (with a penalty term for suppressed subspaces
instead of a compression), eigenvalue clustering uses plain rounding, and
probabilities come from direct Born-rule arithmetic.  The exception is
composite_reference, which runs the library's two-time engine once on the
dense composite, to check the word-by-word solve against it.
"""

import numpy as np
from scipy.linalg import expm, null_space

import qfluct as qf

PENALTY = 1e5  # suppression strength for the extrapolated penalty oracle


def regularized_exp(f: np.ndarray, n: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Penalty-regularized exponential exp(F - N/eps).

    Converges to the compressed exponential at rate O(eps), so at
    eps = 1e-8 it is an oracle accurate to ~1e-8 for order-one F.
    """
    return expm(f - n / eps)


def extrapolated_penalty_exp(f: np.ndarray, n: np.ndarray, s: float = PENALTY) -> np.ndarray:
    """Richardson extrapolation of the penalty exponential in 1/s,
    cancelling the leading error term; accurate to ~1e-10 at s = 1e5."""
    return 2.0 * expm(f - 2.0 * s * n) - expm(f - s * n)


def regularized_exp_log_form(f: np.ndarray, n: np.ndarray, eps: float) -> np.ndarray:
    """exp(F + ln(eps) N): converges to the same limit but only at rate
    O(1/ln(1/eps)); used for convergence-trend checks."""
    return expm(f + np.log(eps) * n)


def kron_all(*mats):
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def projectors(family):
    """Branch projectors V_b V_b† of a BranchBlocks family, from its blocks()."""
    return [cols @ cols.conj().T for cols in family.blocks()]


def proj(dim, idx):
    p = np.zeros((dim, dim), dtype=complex)
    p[idx, idx] = 1.0
    return p


def naimark_dilate_randomized(povm, rng):
    """A Naimark dilation of povm with a random unitary completion.

    The square-root isometry |psi> -> sum_k (sqrt(M_k)|psi>) (x) |k>, with
    each square root from np.linalg.eigh, fills the columns |i> (x) |0> of
    U; the other columns come from the QR of the isometry followed by
    Gaussian columns drawn from rng.  Branch k spans U†(I (x) |k>), the
    range of the dilated projector U†(I (x) |k><k|)U.
    """
    d, kp = povm.dim, povm.n_outcomes
    n = d * kp
    isometry = np.zeros((n, d), dtype=complex)
    for k, m in enumerate(povm.elements):
        w, v = np.linalg.eigh(m)
        isometry[k::kp] = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    gaussian = rng.normal(size=(n, n - d)) + 1j * rng.normal(size=(n, n - d))
    q, _ = np.linalg.qr(np.hstack([isometry, gaussian]))
    u = np.empty((n, n), dtype=complex)
    u[:, ::kp] = isometry
    u[:, np.arange(n) % kp != 0] = q[:, d:]
    blocks = [u.conj().T @ np.kron(np.eye(d), np.eye(kp)[:, [k]]) for k in range(kp)]
    return qf.NaimarkDilation(vectors=np.hstack(blocks), offsets=tuple(range(0, n + 1, d)), probe_dim=kp)


def partial_trace(m, dims, keep):
    """Trace out the tensor factors not listed in ``keep`` (indices into
    ``dims``, encoding (x) probe (x) message ordering); the kept factors
    stay in order, and tracing everything returns a 1x1 matrix."""
    m = np.asarray(m)
    if int(np.prod(dims)) != m.shape[0]:
        raise ValueError(f"product of dims {list(dims)} does not match dimension {m.shape[0]}")
    t = m.reshape(list(dims) * 2)
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d, d)


def build_joint_state(ensemble, povm):
    """Composite state sum_j p_j rho_j (x) |0><0| (x) |j><j| under the
    encoding (x) probe (x) message ordering, with one probe level per
    outcome of povm."""
    j_dim = ensemble.n_words
    probe = proj(povm.n_outcomes, 0)
    return sum(
        p * kron_all(rho, probe, proj(j_dim, j))
        for j, (p, rho) in enumerate(zip(ensemble.priors, ensemble.states))
    )


def relative_cutoff(values, rank_tol):
    """rank_tol times the largest of the ascending values, or rank_tol
    when that is smaller."""
    return rank_tol * values[-1] if values.size and values[-1] > rank_tol else rank_tol


def equality_residual_reference(inst, gamma, tol=qf.DEFAULT_TOLS):
    """The saturation defect of analyze's equality_residual: the largest
    |P_j (ln rho_j - ln rho_bar + ln(gamma) I - sum_k ln(p(k|j)/p(k)) M_k) P_j|
    entry over the words, built here from np.linalg.eigh of each rho_j and
    of rho_bar = sum_j p_j rho_j.  A log on a support sums ln(lambda)
    |v><v| over the eigenvalues above relative_cutoff, P_j is rho_j's
    support projector, and only the outcomes with p(k|j) above prob_floor
    add their term.
    """
    ensemble, elements = inst.ensemble, inst.povm.elements

    def log_on_support(m):
        lam, vec = np.linalg.eigh(m)
        keep = lam > relative_cutoff(lam, tol.rank_tol)
        v = vec[:, keep]
        return (v * np.log(lam[keep])) @ v.conj().T, v @ v.conj().T

    log_bar, _ = log_on_support(sum(p * rho for p, rho in zip(ensemble.priors, ensemble.states)))
    cond = np.array([[np.trace(rho @ m).real for m in elements] for rho in ensemble.states])
    marginals = ensemble.priors @ cond
    worst = 0.0
    for rho, row in zip(ensemble.states, cond):
        log_rho, p = log_on_support(rho)
        inner = log_rho - log_bar + np.log(gamma) * np.eye(len(rho))
        for c, mk, m in zip(row, marginals, elements):
            if c > tol.prob_floor:
                inner = inner - np.log(c / mk) * m
        worst = max(worst, float(np.abs(p @ inner @ p).max()))
    return worst


def compressed_exponents(inst, internals, tol=qf.DEFAULT_TOLS):
    """Each word's compressed exponent, built here with np.linalg.eigh.

    supp rho_bar is the span of the words' support columns, its rank cut
    by an SVD at rank_tol times the largest singular value.  Word j's
    exponent F_j = ln(rho_bar) + sum_k ln(p(k|j)/p(k)) M_k over its
    retained outcomes is compressed to the part of supp rho_bar that the
    sum of its dropped M_k annihilates.  Returns, per word, the ascending
    eigenvalues w of the compression and their eigenvectors on the
    encoding space; W_j = exp(-A_f^j) is sum e^w |v><v| (x) |0><0|.
    tol is the one prepare_instance ran with.
    """
    ensemble = inst.ensemble
    supports = []
    for rho in ensemble.states:
        lam, vec = np.linalg.eigh(rho)
        supports.append(vec[:, lam > tol.rank_tol * lam[-1]])
    u, sing, _ = np.linalg.svd(np.hstack(supports))
    span = u[:, : np.count_nonzero(sing > tol.rank_tol * sing[0])]
    rho_bar = sum(p * rho for p, rho in zip(ensemble.priors, ensemble.states))
    # An eigenvalue of rho_bar near 1e-12 is fixed by rho_bar's rounding only
    # to about 1e-4 relative, so this decomposes the same symmetrized matrix
    # as the library; everything after this eigh is built here.
    inner = span.conj().T @ rho_bar @ span
    lam, vec = np.linalg.eigh((inner + inner.conj().T) / 2)
    s_bar = span @ vec
    log_bar = (s_bar * np.log(lam)) @ s_bar.conj().T
    out = []
    for j in range(ensemble.n_words):
        exponent = log_bar.copy()
        kernel = s_bar
        dropped = [m for k, m in enumerate(inst.povm.elements) if not internals.retained[j, k]]
        if dropped:
            mu, y = np.linalg.eigh(s_bar.conj().T @ sum(dropped) @ s_bar)
            kernel = s_bar @ y[:, mu <= relative_cutoff(mu, tol.rank_tol)]
        for k, m in enumerate(inst.povm.elements):
            if internals.retained[j, k]:
                exponent = exponent + internals.info_terms[j, k] * m
        w, v = np.linalg.eigh(kernel.conj().T @ exponent @ kernel)
        out.append((w, kernel @ v))
    return out


def composite_reference(inst, internals, tol=qf.DEFAULT_TOLS):
    """The one-block construction: the two-time engine run once on the
    dense n x n composite, n = d*K*J, with the identity channel.

    rho0 comes from build_joint_state, A_i from the dense
    sum_j -ln(rho_j) (x) |0><0| (x) |j><j|, and A_f from the per-word
    compressed exponents of compressed_exponents: an eigenvalue w of word j
    whose e^w is above rank_tol times the largest of that word becomes the
    branch -w on v (x) |0> (x) |j>, and the orthogonal complement of those
    columns is the +infinity branch.  Returns gamma by both routes, the
    mean outcome difference and the merged atoms.
    """
    ensemble = inst.ensemble
    j_dim = ensemble.n_words
    probe = proj(inst.povm.n_outcomes, 0)
    rho0 = build_joint_state(ensemble, inst.povm)
    a_i = sum(
        kron_all(-qf.func_on_support(rho, np.log, tol=tol), probe, proj(j_dim, j))
        for j, rho in enumerate(ensemble.states)
    )
    pairs = compressed_exponents(inst, internals, tol)
    values = np.concatenate([w for w, _ in pairs])
    vectors = np.concatenate(
        [kron_all(v, probe[:, [0]], proj(j_dim, j)[:, [j]]) for j, (_, v) in enumerate(pairs)], axis=1
    )
    mask = np.concatenate([np.exp(w) > relative_cutoff(np.exp(w), tol.rank_tol) for w, _ in pairs])
    order = np.argsort(-values[mask])
    finite = qf.SpectralDecomposition(values=-values[mask][order], vectors=vectors[:, mask][:, order])
    branches = qf.group_eigenspaces(finite, tol.degeneracy_tol)
    infinite = null_space(finite.vectors.conj().T)
    if infinite.shape[1]:
        branches.append((np.inf, infinite))
    protocol = qf.TwoTimeProtocol.create(
        rho0,
        qf.observable_from_hermitian(a_i, tol),
        qf.identity_channel(rho0.shape[0]),
        qf.ExtendedObservable.from_blocks(branches, tol),
    )
    delta = qf.delta_a_distribution(qf.joint_distribution(protocol, tol), tol)
    return {
        "gamma_distribution": float(np.sum(delta.probs * np.exp(-delta.values))),
        "gamma_trace": qf.efficacy(protocol),
        "mean_delta_a": float(np.sum(delta.probs * delta.values)),
        "atoms": list(zip(delta.values.tolist(), delta.probs.tolist())),
    }


def entropy(rho):
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log(w)))


def log_on_support(rho, cutoff=1e-12):
    w, v = np.linalg.eigh(rho)
    mask = w > cutoff * max(w.max(), cutoff)
    out = np.zeros(len(w))
    out[mask] = np.log(w[mask])
    return (v * out) @ v.conj().T


def support_proj(rho, cutoff=1e-12):
    w, v = np.linalg.eigh(rho)
    mask = w > cutoff * max(w.max(), cutoff)
    cols = v[:, mask]
    return cols @ cols.conj().T


def _cluster_by_rounding(values, decimals=9):
    keys = np.round(values, decimals)
    clusters = {}
    for i, k in enumerate(keys):
        clusters.setdefault(k, []).append(i)
    return clusters


def enumeration_oracle(priors, states, povm_elements, dilation_projectors):
    """Full-space enumeration of the composite two-time statistics.

    Recomputes the mutual information, the Holevo quantity, the mean
    outcome difference and the efficacy by brute force on the
    d*K*J-dimensional space, sharing only the dilation projectors (which
    define the construction) with the library.  Returns a dict of scalars.
    """
    priors = np.asarray(priors, dtype=float)
    states = [np.asarray(s, dtype=complex) for s in states]
    ms = [np.asarray(m, dtype=complex) for m in povm_elements]
    d = states[0].shape[0]
    kp = len(ms)
    jw = len(states)

    cond = np.array([[float(np.trace(rho @ m).real) for m in ms] for rho in states])
    marg = priors @ cond
    info = 0.0
    for j in range(jw):
        for k in range(kp):
            if cond[j, k] > 1e-12:
                info += priors[j] * cond[j, k] * np.log(cond[j, k] / marg[k])
    rho_bar = sum(p * s for p, s in zip(priors, states))
    chi = entropy(rho_bar) - sum(p * entropy(s) for p, s in zip(priors, states))

    probe = proj(kp, 0)
    rho0 = sum(
        priors[j] * kron_all(states[j], probe, proj(jw, j)) for j in range(jw)
    )
    a_i = sum(
        kron_all(-log_on_support(states[j]), probe, proj(jw, j)) for j in range(jw)
    )

    # final-exponential blocks with penalty-suppressed unreachable directions
    log_bar_ep = log_on_support(np.kron(rho_bar, probe))
    outside = np.eye(d * kp) - support_proj(np.kron(rho_bar, probe))
    w_full = np.zeros((d * kp * jw, d * kp * jw), dtype=complex)
    for j in range(jw):
        exponent = log_bar_ep.copy()
        suppress = outside.copy()
        for k in range(kp):
            if cond[j, k] > 1e-12:
                exponent = exponent + np.log(cond[j, k] / marg[k]) * dilation_projectors[k]
            else:
                suppress = suppress + dilation_projectors[k]
        w_full += kron_all(extrapolated_penalty_exp(exponent, suppress), proj(jw, j))

    # enumerate the two-time outcomes
    wi, vi = np.linalg.eigh(a_i)
    wf, vf = np.linalg.eigh(w_full)
    gamma = 0.0
    mean = 0.0
    total = 0.0
    for idx_i in _cluster_by_rounding(wi).values():
        cols = vi[:, idx_i]
        p_i = cols @ cols.conj().T
        a_m = float(wi[idx_i].mean())
        rho_m = p_i @ rho0 @ p_i
        for idx_f in _cluster_by_rounding(wf).values():
            mu = float(wf[idx_f].mean())
            colsf = vf[:, idx_f]
            p_f = colsf @ colsf.conj().T
            p = float(np.trace(p_f @ rho_m).real)
            total += p
            if mu <= 1e-10:
                assert p <= 1e-10, f"suppressed branch has probability {p}"
                continue
            delta = -np.log(mu) - a_m
            gamma += p * np.exp(-delta)
            mean += p * delta
    assert abs(total - 1.0) < 1e-9
    return {
        "mutual_information": float(info),
        "chi": float(chi),
        "gamma": float(gamma),
        "mean_delta_a": float(mean),
    }


def apply_kraus(kraus, x):
    """sum_k K_k X K_k†, one operator at a time, for one matrix or a stack
    (..., d, d)."""
    return sum(k @ x @ k.conj().T for k in kraus)


def dephase_reference(rho, projectors):
    """Non-selective measurement sum_m Pi_m rho Pi_m from explicit projectors."""
    return sum(p @ rho @ p for p in projectors)


def joint_probabilities_reference(rho, projectors_i, kraus, projectors_f):
    """p[m, n] = tr(Pi_n E(Pi_m rho Pi_m)) from explicit projector lists."""
    return np.array(
        [
            [float(np.trace(p_n @ apply_kraus(kraus, p_m @ rho @ p_m)).real) for p_n in projectors_f]
            for p_m in projectors_i
        ]
    )


def efficacy_reference(rho, values_i, projectors_i, kraus, values_f, projectors_f):
    """tr(exp(-A_f) E(M_i(rho) exp(A_i))) with both exponentials summed
    branch by branch; +infinity final branches contribute nothing."""
    exp_a_i = sum(np.exp(v) * p for v, p in zip(values_i, projectors_i))
    exp_neg_a_f = sum(
        np.exp(-v) * p for v, p in zip(values_f, projectors_f) if np.isfinite(v)
    )
    weighted = apply_kraus(kraus, dephase_reference(rho, projectors_i) @ exp_a_i)
    return float(np.trace(exp_neg_a_f @ weighted).real)


def merge_atoms_reference(joints, tol):
    """Delta-a atoms by the plain loop: sort the finite (delta_a, p) pairs
    of all joints stably by value, chain each value onto the previous
    cluster when it lies within degeneracy_tol * max(1, |v|) of that
    cluster's last member, and keep clusters of mass above prob_floor at
    their probability-weighted mean."""
    pairs = sorted(
        (
            (a_n - a_m, joint.probs[m, n])
            for joint in joints
            for m, a_m in enumerate(joint.initial_values)
            for n, a_n in enumerate(joint.final_values)
            if np.isfinite(a_n)
        ),
        key=lambda t: t[0],
    )
    members = []
    for v, p in pairs:
        if members and v - members[-1][-1][0] <= tol.degeneracy_tol * max(1.0, abs(v)):
            members[-1].append((v, p))
        else:
            members.append([(v, p)])
    atoms = []
    for cluster in members:
        total = sum(p for _, p in cluster)
        if total > tol.prob_floor:
            atoms.append((sum(v * p for v, p in cluster) / total, total))
    return atoms


def _reference_information(priors, states, blocks, prob_floor):
    """I of normalized block sets (S, K, d, d) and the log-ratio terms
    ln(p(k|j)/p(k)) (0 where p(k|j) <= prob_floor), from direct arithmetic."""
    grams = blocks.conj().swapaxes(-1, -2) @ blocks
    cond = np.clip(np.einsum("jab,skba->sjk", states, grams).real, 0.0, None)
    ratio = np.divide(cond, (priors @ cond)[..., None, :], out=np.ones_like(cond), where=cond > prob_floor)
    terms = np.log(ratio)
    joint = priors[:, None] * cond
    info = np.sum(np.where(joint > prob_floor, joint * terms, 0.0), axis=(-2, -1))
    return info, terms


def reference_ascent(starts, ensemble, prob_floor, min_step=1e-12, max_steps=500):
    """The one-proposal accessible-information ascent: from each start, one
    step B_k <- B_k (I + eps R_k), renormalized, per iteration; eps starts
    at 1, doubles after a step that raises I and halves after one that does
    not or whose normalizer is singular.  Returns each start's I, its blocks
    and whether it was cut at max_steps with eps still >= min_step."""
    from qfluct.rand import normalized_blocks

    states = np.asarray(ensemble.states)
    priors = ensemble.priors
    floor = ensemble.dim * 1e-14

    def gradients(terms):
        return np.einsum("j,sjk,jab->skab", priors, terms, states)

    current, regular = normalized_blocks(starts, floor)
    info = np.full(len(current), -np.inf)
    grads = np.zeros_like(current)
    info[regular], terms = _reference_information(priors, states, current[regular], prob_floor)
    grads[regular] = gradients(terms)
    step = np.where(regular, 1.0, 0.0)
    for _ in range(max_steps):
        live = np.flatnonzero(step >= min_step)
        if live.size == 0:
            break
        b = current[live]
        proposal, regular = normalized_blocks(b + step[live, None, None, None] * b @ grads[live], floor)
        value = np.full(live.size, -np.inf)
        value[regular], terms = _reference_information(priors, states, proposal[regular], prob_floor)
        accept = value > info[live]
        moved = live[accept]
        current[moved], info[moved] = proposal[accept], value[accept]
        grads[moved] = gradients(terms[accept[regular]])
        step[live] *= np.where(accept, 2.0, 0.5)
    return info, current, step >= min_step


def stationarity_defects(ensemble, povm_elements, prob_floor):
    """Holevo's condition for a POVM that maximizes I: with
    R_k = sum_j p_j ln(p(k|j)/p(k)) rho_j over the entries p(k|j) > prob_floor,
    Lambda = sum_k R_k M_k is Hermitian and Lambda - R_l >= 0 for every l.
    Returns max |Lambda - Lambda†| and the smallest eigenvalue of any
    Lambda - R_l."""
    states = np.asarray(ensemble.states)
    elements = np.asarray(povm_elements)
    priors = ensemble.priors
    cond = np.array([[np.trace(rho @ m).real for m in elements] for rho in states])
    marginal = priors @ cond
    logs = np.zeros_like(cond)
    kept = cond > prob_floor
    logs[kept] = np.log(cond[kept] / np.broadcast_to(marginal, cond.shape)[kept])
    grads = np.einsum("j,jk,jab->kab", priors, logs, states)
    lam = sum(r @ m for r, m in zip(grads, elements))
    asymmetry = float(np.max(np.abs(lam - lam.conj().T)))
    hermitian = (lam + lam.conj().T) / 2
    lowest = min(float(np.linalg.eigvalsh(hermitian - r)[0]) for r in grads)
    return asymmetry, lowest
