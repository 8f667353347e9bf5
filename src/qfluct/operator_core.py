"""Hermitian linear algebra with an explicit tolerance policy.

Everything in the package is built on dense complex numpy arrays.  This
module owns the tolerance pack, the validated spectral primitives
(decomposition, eigenspace grouping into eigenvector blocks, support
projectors), matrix functions restricted to operator supports, and the
compressed exponential exp(F) on the complement of a suppressed subspace.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerance pack.

    Values are absolute for operators of order-one norm; checks on larger
    operators scale by max(1, max-entry).  Every field must be strictly
    positive.  Override selected fields with :meth:`replace`.
    """

    hermiticity_tol: float = 1e-10
    psd_tol: float = 1e-10
    trace_tol: float = 1e-10
    degeneracy_tol: float = 1e-9
    rank_tol: float = 1e-12
    proj_tol: float = 1e-10
    ortho_tol: float = 1e-10
    recon_tol: float = 1e-10
    prob_floor: float = 1e-12

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
                raise ValidationError(
                    f"tolerance {field.name} must be a strictly positive finite number, got {value!r}"
                )

    def replace(self, **overrides) -> "Tolerances":
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, overrides: dict) -> "Tolerances":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ValidationError(f"unknown tolerance fields: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in overrides.items()})


DEFAULT_TOLS = Tolerances()


def max_abs(a: np.ndarray) -> float:
    """Max-norm (largest entry magnitude); 0 for empty arrays."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix has non-finite entries")
    return m


def require_hermitian(h, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Validate Hermiticity and return the exactly symmetrized matrix."""
    m = as_matrix(h)
    asym = max_abs(m - m.conj().T)
    scale = max(1.0, max_abs(m))
    if asym > tol.hermiticity_tol * scale:
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds "
            f"{tol.hermiticity_tol:.1e} * {scale:.3e}"
        )
    return (m + m.conj().T) / 2


def require_density_matrix(rho, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace of a state."""
    m = require_hermitian(rho, tol)
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -tol.psd_tol:
        raise ValidationError(f"state has negative eigenvalue {lo:.3e} beyond psd_tol")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > tol.trace_tol:
        raise ValidationError(f"state trace {tr!r} differs from 1 beyond trace_tol")
    return m


def require_projector(p, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Validate that p is an orthogonal projector (P = P², P = P†)."""
    m = as_matrix(p)
    herm = max_abs(m - m.conj().T)
    idem = max_abs(m @ m - m)
    if herm > tol.proj_tol or idem > tol.proj_tol:
        raise ValidationError(
            f"not an orthogonal projector: |P-P†|={herm:.3e}, |P²-P|={idem:.3e} "
            f"(proj_tol={tol.proj_tol:.1e})"
        )
    return (m + m.conj().T) / 2


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of a Hermitian operator, eigenvalues ascending."""

    values: np.ndarray   # (d,) real, ascending
    vectors: np.ndarray  # (d, d) complex, columns are eigenvectors

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def spectral_decompose(h, tol: Tolerances = DEFAULT_TOLS) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, verifying the result.

    Raises ValidationError when the input is not Hermitian within
    tolerance (reporting the max asymmetry) and ConsistencyError-level
    ValidationError when the reconstruction or orthonormality check fails.
    """
    m = require_hermitian(h, tol)
    values, vectors = np.linalg.eigh(m)
    scale = max(1.0, max_abs(m))
    recon = max_abs(m - (vectors * values) @ vectors.conj().T)
    if recon > tol.recon_tol * scale:
        raise ValidationError(f"eigendecomposition reconstruction error {recon:.3e}")
    ortho = max_abs(vectors.conj().T @ vectors - np.eye(m.shape[0]))
    if ortho > tol.ortho_tol:
        raise ValidationError(f"eigenvector orthonormality error {ortho:.3e}")
    return SpectralDecomposition(values=values.astype(float), vectors=vectors)


def group_eigenspaces(
    dec: SpectralDecomposition, degeneracy_tol: float
) -> list[tuple[float, np.ndarray]]:
    """Cluster eigenvalues by ascending gap threshold into eigenspaces.

    Returns (value, columns) pairs, one per cluster: value is the mean of
    the member eigenvalues and columns is the contiguous block of
    eigenvectors spanning the eigenspace (its projector is cols @ cols†).
    The blocks partition the orthonormal eigenbasis by construction.
    """
    values, vectors = dec.values, dec.vectors
    if not values.size:
        return []
    gaps = np.flatnonzero(np.diff(values) > degeneracy_tol) + 1
    edges = [0, *gaps.tolist(), values.size]
    return [(float(values[a:b].mean()), vectors[:, a:b]) for a, b in zip(edges, edges[1:])]


def _support_cutoff(values: np.ndarray, rank_tol: float) -> float:
    lam_max = float(values[-1]) if values.size else 0.0
    return rank_tol * lam_max if lam_max > rank_tol else rank_tol


def support_projector(a, tol: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, int]:
    """Projector onto the strictly positive eigenspace of a PSD operator.

    The cutoff is relative (lambda > rank_tol * lambda_max) with an
    absolute floor of rank_tol, so a numerically zero operator yields the
    zero projector with rank 0.
    """
    dec = spectral_decompose(a, tol)
    if dec.values[0] < -tol.psd_tol * max(1.0, abs(float(dec.values[-1]))):
        raise ValidationError(
            f"support_projector requires a PSD operator; min eigenvalue {dec.values[0]:.3e}"
        )
    mask = dec.values > _support_cutoff(dec.values, tol.rank_tol)
    cols = dec.vectors[:, mask]
    return cols @ cols.conj().T, int(mask.sum())


def func_on_support(
    a,
    f: Callable[[np.ndarray], np.ndarray],
    off_support_value: float = 0.0,
    tol: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Apply a scalar function spectrally on the support of a PSD operator.

    Eigenvalues above the support cutoff are mapped through ``f``;
    eigenvalues on the kernel are assigned ``off_support_value``.  Used
    with f = log for pseudo-logarithms.
    """
    dec = spectral_decompose(a, tol)
    if dec.values[0] < -tol.psd_tol * max(1.0, abs(float(dec.values[-1]))):
        raise ValidationError(
            f"func_on_support requires a PSD operator; min eigenvalue {dec.values[0]:.3e}"
        )
    mask = dec.values > _support_cutoff(dec.values, tol.rank_tol)
    mapped = np.full(dec.dim, float(off_support_value))
    if mask.any():
        fv = np.asarray(f(dec.values[mask]), dtype=float)
        if not np.all(np.isfinite(fv)):
            bad = dec.values[mask][~np.isfinite(fv)][0]
            raise ValidationError(f"function evaluates non-finite on in-support eigenvalue {bad!r}")
        mapped[mask] = fv
    return (dec.vectors * mapped) @ dec.vectors.conj().T


def pseudo_log(a, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """log on the support, 0 on the kernel."""
    return func_on_support(a, np.log, 0.0, tol)


def compressed_exp(f, n, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Exponential of F with an infinitely suppressed subspace.

    For a Hermitian F and an orthogonal projector N, returns
    Q exp(Q F Q |_range(Q)) Q with Q = I - N: the exponential of the
    compression of F to the complement of range(N), embedded back into
    the full space.  This is the limit of exp(F - s N) as the suppression
    strength s goes to +infinity, and the canonical realization of
    exponentials of observables carrying a formally infinite branch.
    """
    fm = require_hermitian(f, tol)
    nm = require_projector(n, tol)
    if fm.shape != nm.shape:
        raise ValidationError(f"dimension mismatch: F is {fm.shape}, N is {nm.shape}")
    w, v = np.linalg.eigh(nm)
    basis = v[:, w < 0.5]  # orthonormal basis of ker(N) = range(Q)
    if basis.shape[1] == 0:
        return np.zeros_like(fm)
    fc = basis.conj().T @ fm @ basis
    fc = (fc + fc.conj().T) / 2
    wc, vc = np.linalg.eigh(fc)
    ec = (vc * np.exp(wc)) @ vc.conj().T
    out = basis @ ec @ basis.conj().T
    return (out + out.conj().T) / 2


def kron(*factors) -> np.ndarray:
    """Tensor product of square matrices, first factor slowest index.

    The package-wide subsystem ordering convention is
    encoding (x) probe (x) message.
    """
    if not factors:
        raise ValidationError("kron requires at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Canonical basis column vector |index> in C^dim."""
    if not 0 <= index < dim:
        raise ValidationError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def basis_projector(dim: int, index: int) -> np.ndarray:
    """Rank-1 projector |index><index| in C^dim."""
    v = basis_ket(dim, index)
    return np.outer(v, v.conj())
