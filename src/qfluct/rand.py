"""Seeded random quantum objects: states, observables, unitaries, POVMs.

Everything takes a numpy Generator so batches stay reproducible; helpers
never touch global random state.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .measurement import POVM
from .operator_core import DEFAULT_TOLS, Tolerances


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


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


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = complex_gaussian(rng, dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> np.ndarray:
    """Wishart-style state G G† / tr with G of shape (dim, rank).

    rank=None draws a well-conditioned full-rank state (dim + 2 columns);
    rank < dim gives a state with an exact kernel, exercising support
    logic downstream.
    """
    cols = dim + 2 if rank is None else int(rank)
    if cols < 1 or cols > 2 * dim + 2:
        raise ValidationError(f"state rank {cols} out of range for dimension {dim}")
    g = complex_gaussian(rng, (dim, cols))
    m = g @ g.conj().T
    return m / np.trace(m).real


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


def random_povm(
    dim: int, n_outcomes: int, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOLS
) -> POVM:
    """POVM from Gaussian draws B_k via M_k = T^{-1/2} B_k† B_k T^{-1/2}
    with T = sum_k B_k† B_k."""
    blocks = [complex_gaussian(rng, (dim, dim)) for _ in range(n_outcomes)]
    return povm_from_blocks(blocks, tol)


def normalized_grams(blocks: list[np.ndarray], floor: float) -> list[np.ndarray] | None:
    """M_k = T^{-1/2} B_k† B_k T^{-1/2} with T = sum_k B_k† B_k, or None
    when the smallest eigenvalue of T is at or below floor."""
    dim = blocks[0].shape[0]
    grams = [b.conj().T @ b for b in blocks]
    total = np.zeros((dim, dim), dtype=complex)
    for g in grams:
        total += g
    w, v = np.linalg.eigh(total)
    if w.min() <= floor:
        return None
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_sqrt @ g @ inv_sqrt for g in grams]


def povm_from_blocks(blocks: list[np.ndarray], tol: Tolerances = DEFAULT_TOLS) -> POVM:
    """Normalize arbitrary matrices B_k into a POVM (the T^{-1/2} trick)."""
    elements = normalized_grams(blocks, 0.0)
    if elements is None:
        raise ValidationError("POVM normalizer is singular; draw different blocks")
    return POVM.create(elements, tol)
