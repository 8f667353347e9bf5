"""Seeded random quantum objects: states and POVMs.

Everything takes a numpy Generator so batches stay reproducible; helpers
never touch global random state.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .measurement import POVM


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


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


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> POVM:
    """POVM from Gaussian draws B_k via M_k = T^{-1/2} B_k† B_k T^{-1/2}
    with T = sum_k B_k† B_k."""
    blocks = [complex_gaussian(rng, (dim, dim)) for _ in range(n_outcomes)]
    return povm_from_blocks(blocks)


def normalized_blocks(blocks, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """B_k T^{-1/2} with T = sum_k B_k† B_k, for block sets stacked as
    (..., K, d, d), and a mask over the leading axes that is False where
    the smallest eigenvalue of T is at or below floor (those sets come back
    unnormalized).  The grams of a regular set, T^{-1/2} B_k† B_k T^{-1/2}, sum
    to the identity."""
    b = np.asarray(blocks)
    w, v = np.linalg.eigh((b.conj().swapaxes(-1, -2) @ b).sum(axis=-3))
    regular = w[..., 0] > floor
    w = np.where(regular[..., None], w, 1.0)
    inv_sqrt = (v * (1.0 / np.sqrt(w))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return b @ inv_sqrt[..., None, :, :], regular


def povm_from_blocks(blocks) -> POVM:
    """Normalize arbitrary matrices B_k into a POVM (the T^{-1/2} trick),
    checked by POVM.create."""
    normalized, regular = normalized_blocks(blocks, 0.0)
    if not regular:
        raise ValidationError("POVM normalizer is singular; draw different blocks")
    return POVM.create([c.conj().T @ c for c in normalized])
