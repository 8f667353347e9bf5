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
from scipy.linalg import expm

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


def proj(dim, idx):
    p = np.zeros((dim, dim), dtype=complex)
    p[idx, idx] = 1.0
    return p


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


def build_joint_state(ensemble, dilation):
    """Composite state sum_j p_j rho_j (x) |0><0| (x) |j><j| under the
    encoding (x) probe (x) message ordering."""
    j_dim = ensemble.n_words
    probe = proj(dilation.probe_dim, 0)
    return sum(
        p * kron_all(rho, probe, proj(j_dim, j))
        for j, (p, rho) in enumerate(zip(ensemble.priors, ensemble.states))
    )


def composite_reference(inst, internals):
    """The one-block construction: the two-time engine run once on the
    dense n x n composite, n = d*K*J, with the identity channel.

    rho0 comes from build_joint_state, A_i from the dense
    sum_j -ln(rho_j) (x) |0><0| (x) |j><j|, and A_f from the dense
    exp(-A_f) = sum_j W_j (x) |j><j| over the library's per-word
    compressed exponentials W_j: in-support eigenvalues mu become branches
    -ln(mu), the kernel the +infinity branch.  Returns gamma by both
    routes, the mean outcome difference and the merged atoms.
    """
    ensemble, tol = inst.ensemble, internals.tolerances
    j_dim, probe_dim = ensemble.n_words, internals.dilation.probe_dim
    probe = proj(probe_dim, 0)
    rho0 = build_joint_state(ensemble, internals.dilation)
    a_i = sum(
        kron_all(-qf.pseudo_log(rho, tol), probe, proj(j_dim, j))
        for j, rho in enumerate(ensemble.states)
    )
    # The eigenpairs of the block-diagonal exp(-A_f) are those of its
    # blocks, embedded.  A dense eigh would fix an eigenvalue near e^-25
    # only to about 1e-5 relative, and split equal branches of two words.
    w_full = sum(kron_all(w, proj(j_dim, j)) for j, w in enumerate(internals.block_exps))
    pairs = [np.linalg.eigh(w) for w in internals.block_exps]
    values = np.concatenate([w for w, _ in pairs])
    vectors = np.concatenate([kron_all(v, proj(j_dim, j)[:, [j]]) for j, (_, v) in enumerate(pairs)], axis=1)
    assert np.abs(w_full @ vectors - vectors * values).max() <= 1e-12
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    mask = values > (tol.rank_tol * values[-1] if values[-1] > tol.rank_tol else tol.rank_tol)
    branches = []
    if mask.any():
        finite = -np.log(values[mask])
        order = np.argsort(finite)
        dec = qf.SpectralDecomposition(values=finite[order], vectors=vectors[:, mask][:, order])
        branches.extend(qf.group_eigenspaces(dec, tol.degeneracy_tol))
    if (~mask).any():
        branches.append((np.inf, vectors[:, ~mask]))
    protocol = qf.TwoTimeProtocol.create(
        rho0,
        qf.observable_from_hermitian(a_i, tol),
        qf.identity_channel(rho0.shape[0]),
        qf.ExtendedObservable.from_blocks(branches, tol),
        tol,
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
