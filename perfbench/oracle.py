"""Independent checks: recompute paper quantities with scipy, without qfluct.

`close` and the `*_mismatch` functions return None when the program's value
agrees, or a one-line reason when it does not.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh, expm

AGREE_TOL = 1e-9


def close(name: str, got: float, want: float, tol: float = AGREE_TOL) -> str | None:
    if abs(got - want) <= tol * max(1.0, abs(want)):
        return None
    return f"{name}: program {got!r}, independent {want!r}"


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def entropy(rho: np.ndarray) -> float:
    w = eigvalsh(rho)
    w = w[w > 0]
    return float(-np.sum(w * np.log(w)))


def chi(priors, states) -> float:
    average = sum(p * s for p, s in zip(priors, states))
    return entropy(average) - sum(p * entropy(s) for p, s in zip(priors, states))


def mutual_information(priors, states, elements) -> float:
    priors = np.asarray(priors, dtype=float)
    cond = np.array([[max(float(np.vdot(m, s).real), 0.0) for m in elements] for s in states])
    marginals = priors @ cond
    joint = priors[:, None] * cond
    keep = joint > 0
    ratio = cond[keep] / np.broadcast_to(marginals, cond.shape)[keep]
    return float(np.sum(joint[keep] * np.log(ratio)))


def holevo_mismatch(priors, states, elements, chi_value: float, info_value: float) -> str | None:
    """chi and I of the program against eigvalsh-based recomputation."""
    return _first(
        close("chi", chi_value, chi(priors, states)),
        close("mutual_information", info_value, mutual_information(priors, states, elements)),
    )


def projectors(vectors: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """Eigenprojectors of U diag(values) U†, grouping exactly equal values."""
    out = []
    for v in np.unique(values):
        cols = vectors[:, values == v]
        out.append(cols @ cols.conj().T)
    return out


def efficacy(rho, vectors_i, values_i, kraus, h_final) -> float:
    """tr(exp(-A_f) E(M_i(rho) exp(A_i))) with scipy's Pade exponential."""
    h_initial = (vectors_i * values_i) @ vectors_i.conj().T
    dephased = sum(p @ rho @ p for p in projectors(vectors_i, values_i))
    weighted = dephased @ expm(h_initial)
    evolved = sum(k @ weighted @ k.conj().T for k in kraus)
    return float(np.trace(expm(-h_final) @ evolved).real)


def ft_mismatch(report, gamma: float, identity_tol: float) -> str | None:
    """Trace route against the expm efficacy; enumeration route against it
    at the program's own identity tolerance."""
    return _first(
        close("gamma", report.gamma, gamma),
        close("<exp(-delta_a)>", report.lhs, gamma, identity_tol),
    )


def partition_ratio(h0, h_final, beta: float) -> float:
    return float(np.trace(expm(-beta * h_final)).real / np.trace(expm(-beta * h0)).real)


def jarzynski_mismatch(report, z_ratio: float, identity_tol: float = 1e-8) -> str | None:
    return _first(
        close("z_ratio", report.z_ratio, z_ratio),
        close("<exp(-beta W)>", report.exp_neg_beta_work, z_ratio, identity_tol),
    )


def povm_defect(elements) -> float:
    """Largest violation of positivity or completeness of a POVM."""
    total = sum(elements)
    worst = float(np.abs(total - np.eye(total.shape[0])).max())
    for m in elements:
        worst = max(worst, -float(eigvalsh((m + m.conj().T) / 2)[0]), float(np.abs(m - m.conj().T).max()))
    return worst


def scalars_mismatch(scalars: dict, reference: dict) -> str | None:
    return _first(*(close(k, scalars[k], v) for k, v in reference.items()))
