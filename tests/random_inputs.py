"""Seeded random test inputs: Hermitian matrices, Haar unitaries, Haar
Kraus sets and observables with optionally degenerate spectra."""

import numpy as np

from qfluct.rand import complex_gaussian


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = complex_gaussian(rng, (dim, dim))
    h = (g + g.conj().T) / 2
    return scale * h / np.sqrt(dim)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with the
    standard phase fix on the diagonal of R."""
    q, r = np.linalg.qr(complex_gaussian(rng, (dim, dim)))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def haar_kraus(n_ops: int, dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """n_ops Kraus operators sliced from one Haar isometry (n_ops dim, dim),
    so that sum K_k† K_k = W† W = I."""
    q, r = np.linalg.qr(complex_gaussian(rng, (n_ops * dim, dim)))
    w = q * (np.diag(r) / np.abs(np.diag(r)))
    return [w[k * dim : (k + 1) * dim] for k in range(n_ops)]


def random_observable(
    dim: int, rng: np.random.Generator, degenerate: bool = False
) -> np.ndarray:
    """Random Hermitian matrix; with degenerate=True the spectrum is drawn
    from a small integer grid so repeated eigenvalues are exact."""
    if not degenerate:
        return random_hermitian(dim, rng)
    values = rng.integers(-2, 3, size=dim).astype(float)
    u = haar_unitary(dim, rng)
    return (u * values) @ u.conj().T
