"""Hermitian linear algebra with an explicit tolerance policy.

Everything in the package is built on dense complex numpy arrays.  This
module owns the tolerance pack, the fixed threshold of every algebraic
check (ALGEBRA_TOL), the validated spectral primitives
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


def _is_number(value) -> bool:
    """An int or a float, but not a bool, although bool subclasses int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value, what: str) -> float:
    """float(value), or a ValidationError naming the field when value is
    not a real number or is an int beyond the double range."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} is outside the double range") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a real number, got {value!r}") from None


def _integer(value, what: str, low: int) -> int:
    """int(value) for a Python or numpy integer (not a bool) of at least
    low, which is 0 or 1, or a ValidationError naming the field."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise ValidationError(f"{what} must be a {('non-negative', 'positive')[low]} integer, got {value!r}")


# The threshold of every check that accepts or rejects an input or a
# decomposition.  Absolute at order-one norm; the Hermiticity and
# reconstruction checks scale it by max(1, max-entry), the support rule's
# PSD check by max(1, |lambda_max|).
ALGEBRA_TOL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """The three numerical choices that change results: which eigenvalues
    form one branch (degeneracy_tol), which lie on a support (rank_tol) and
    which probabilities count (prob_floor).  Every field must be strictly
    positive.  Override selected fields with :meth:`replace`."""

    degeneracy_tol: float = 1e-9
    rank_tol: float = 1e-12
    prob_floor: float = 1e-12

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not _is_number(value) or not math.isfinite(value) or value <= 0:
                raise ValidationError(
                    f"tolerance {field.name} must be a strictly positive finite number, got {value!r}"
                )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, overrides: dict) -> "Tolerances":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ValidationError(f"unknown tolerance fields: {sorted(unknown)}")
        # a value that is not a number reaches __post_init__ as it is
        return cls(
            **{k: _as_float(v, f"tolerance {k}") if _is_number(v) else v for k, v in overrides.items()}
        )


DEFAULT_TOLS = Tolerances()


def max_abs(a: np.ndarray) -> float:
    """Max-norm (largest entry magnitude); 0 for empty arrays."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def _max_abs_each(a: np.ndarray) -> np.ndarray:
    """Max-norm of a matrix, or of each matrix of a stack (..., n, n)."""
    return np.abs(a).max(axis=(-2, -1), initial=0.0)


def _failure(failed: np.ndarray, label: str) -> tuple[str, int | tuple] | None:
    """None when no flag of failed is set; else the subject and index of
    the first set flag: a 0-d flag for one matrix gives (label, ()), one
    flag per matrix of a stack gives ("label i", i)."""
    if failed.ndim == 0:
        return (label, ()) if failed else None
    if not failed.any():
        return None
    i = int(np.argmax(failed))
    return f"{label} {i}", i


def _as_matrices(a) -> np.ndarray:
    """Coerce to a square complex matrix, or a stack (..., n, n) of them,
    with n >= 1 and finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValidationError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return _as_matrices(m)


def _hermitian(m: np.ndarray, label: str = "matrix") -> np.ndarray:
    """require_hermitian for a complex matrix or a stack (J, n, n) of them;
    an error names the first failing matrix of a stack by its index."""
    adj = m.conj().swapaxes(-1, -2)
    asym = _max_abs_each(m - adj)
    scale = np.maximum(1.0, _max_abs_each(m))
    if failure := _failure(asym > ALGEBRA_TOL * scale, label):
        subject, i = failure
        raise ValidationError(
            f"{subject} is not Hermitian: max asymmetry {asym[i]:.3e} exceeds "
            f"{ALGEBRA_TOL:.1e} * {scale[i]:.3e}"
        )
    return (m + adj) / 2


def require_hermitian(h) -> np.ndarray:
    """Validate Hermiticity (at ALGEBRA_TOL * max(1, max-entry)) and return
    the exactly symmetrized matrix."""
    return _hermitian(as_matrix(h))


def _density_spectrum(m: np.ndarray, label: str = "state") -> tuple[np.ndarray, np.ndarray]:
    """The validated state, or stack (J, n, n) of states, and its ascending
    eigenvalues (one eigvalsh); an error names the first failing state."""
    m = _hermitian(m, label)
    values = np.linalg.eigvalsh(m)
    low = values[..., 0]
    if failure := _failure(low < -ALGEBRA_TOL, label):
        subject, i = failure
        raise ValidationError(f"{subject} has negative eigenvalue {low[i]:.3e} beyond {ALGEBRA_TOL:g}")
    tr = m.trace(axis1=-2, axis2=-1).real
    if failure := _failure(np.abs(tr - 1.0) > ALGEBRA_TOL, label):
        subject, i = failure
        raise ValidationError(f"{subject} trace {float(tr[i])!r} differs from 1 beyond {ALGEBRA_TOL:g}")
    return m, values


def require_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace of a state, each at
    ALGEBRA_TOL."""
    return _density_spectrum(as_matrix(rho))[0]


def require_projector(p) -> np.ndarray:
    """Validate that p is an orthogonal projector (P = P², P = P†) within
    ALGEBRA_TOL."""
    m = as_matrix(p)
    herm = max_abs(m - m.conj().T)
    idem = max_abs(m @ m - m)
    if herm > ALGEBRA_TOL or idem > ALGEBRA_TOL:
        raise ValidationError(
            f"not an orthogonal projector: |P-P†|={herm:.3e}, |P²-P|={idem:.3e} "
            f"(beyond {ALGEBRA_TOL:g})"
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


def _checked_eigh(m: np.ndarray, label: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the Hermitian part of a
    complex matrix, or of each matrix of a stack (J, n, n) in one eigh,
    with the Hermiticity, reconstruction and orthonormality checks of
    spectral_decompose; an error names the first failing matrix."""
    return _verified_eigh(_hermitian(m, label), label)


def _verified_eigh(m: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """_checked_eigh of a matrix or stack that _hermitian has already
    checked and symmetrized: the eigh with its reconstruction and
    orthonormality checks, and no second Hermiticity pass."""
    values, vectors = np.linalg.eigh(m)
    adj = vectors.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, _max_abs_each(m))
    recon = _max_abs_each(m - (vectors * values[..., None, :]) @ adj)
    if failure := _failure(recon > ALGEBRA_TOL * scale, label):
        subject, i = failure
        raise ValidationError(f"eigendecomposition of {subject}: reconstruction error {recon[i]:.3e}")
    ortho = _max_abs_each(adj @ vectors - np.eye(m.shape[-1]))
    if failure := _failure(ortho > ALGEBRA_TOL, label):
        subject, i = failure
        raise ValidationError(
            f"eigendecomposition of {subject}: eigenvector orthonormality error {ortho[i]:.3e}"
        )
    return values, vectors


def spectral_decompose(h) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, verifying the result.

    Raises ValidationError when the input is not Hermitian within
    ALGEBRA_TOL (reporting the max asymmetry) and when the reconstruction
    or orthonormality check fails at ALGEBRA_TOL.
    """
    values, vectors = _checked_eigh(as_matrix(h))
    return SpectralDecomposition(values=values.astype(float), vectors=vectors)


def _branch_starts(values: np.ndarray, degeneracy_tol: float) -> np.ndarray:
    """The grouping rule of eigenspaces and branches: flags, shaped like the
    ascending values (..., n) with any +infinity last, of the entries that
    start a cluster.  These are the first entry, each finite value more
    than degeneracy_tol above its predecessor, and the first +infinity."""
    finite = np.isfinite(values)
    filled = np.where(finite, values, 0.0)
    gaps = filled[..., 1:] - filled[..., :-1] > degeneracy_tol
    starts = np.ones(values.shape, dtype=bool)
    starts[..., 1:] = np.where(finite[..., 1:], gaps, finite[..., :-1])
    return starts


def _cluster_means(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each cluster's value, in row-major order, for ascending values (..., n)
    whose cluster starts are flagged (see _branch_starts): +infinity for the
    infinite cluster, else the mean, summed from +0.0 as np.mean sums."""
    flat = np.flatnonzero(starts)
    finite = np.isfinite(values).ravel()
    sums = 0.0 + np.add.reduceat(np.where(finite, values.ravel(), 0.0), flat)
    sizes = np.concatenate((flat[1:], [values.size])) - flat
    return np.where(finite[flat], sums / sizes, math.inf)


def group_eigenspaces(
    dec: SpectralDecomposition, degeneracy_tol: float
) -> list[tuple[float, np.ndarray]]:
    """Cluster eigenvalues by ascending gap threshold into eigenspaces: one
    (value, columns) pair per cluster, with the cluster value of an extended
    observable's branch (_cluster_means) and the contiguous block of
    eigenvectors spanning the eigenspace (its projector is cols @ cols†)."""
    starts = _branch_starts(dec.values, degeneracy_tol)
    edges = [*np.flatnonzero(starts).tolist(), dec.dim]
    means = _cluster_means(dec.values, starts).tolist()
    return [(mean, dec.vectors[:, a:b]) for mean, a, b in zip(means, edges, edges[1:])]


def _support_mask(values: np.ndarray, tol: Tolerances, what: str) -> np.ndarray:
    """The support rule: ascending eigenvalues (..., n) of a PSD operator, or
    of each operator of a stack, above rank_tol * lambda_max, or above
    rank_tol when lambda_max is smaller.  Negativity beyond
    ALGEBRA_TOL * max(1, |lambda_max|) raises, naming what (and, for a stack,
    the operator's index)."""
    if not values.shape[-1]:
        return np.zeros(values.shape, dtype=bool)
    lam_max, low = values[..., -1], values[..., 0]
    if failure := _failure(low < -ALGEBRA_TOL * np.maximum(1.0, np.abs(lam_max)), what):
        subject, i = failure
        raise ValidationError(f"{subject} requires a PSD operator; min eigenvalue {low[i]:.3e}")
    cut = np.where(lam_max > tol.rank_tol, tol.rank_tol * lam_max, tol.rank_tol)
    return values > cut[..., None]


def _compressed_eigh(
    f: np.ndarray, suppress: np.ndarray | None, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs (ascending w, columns c) of a Hermitian F compressed to
    the kernel of a PSD suppressor under the support rule, so exp of the
    compression is sum e^w |c><c|; and columns spanning the suppressed
    rest.  With suppress None nothing is suppressed, and F may be a stack
    (J, n, n) solved by one eigh."""
    if suppress is None:
        values, vectors = np.linalg.eigh((f + f.conj().swapaxes(-1, -2)) / 2)
        return values, vectors, np.zeros(f.shape[:-1] + (0,))
    values, vectors = np.linalg.eigh(suppress)
    mask = _support_mask(values, tol, "the suppressor of a compressed exponential")
    kernel, rest = vectors[:, ~mask], vectors[:, mask]
    fc = kernel.conj().T @ f @ kernel
    values, vectors = np.linalg.eigh((fc + fc.conj().T) / 2)
    return values, kernel @ vectors, rest


def support_projector(a, tol: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, int]:
    """Projector onto the strictly positive eigenspace of a PSD operator,
    and its rank, under the support rule of _support_mask: a numerically
    zero operator yields the zero projector with rank 0.
    """
    dec = spectral_decompose(a)
    cols = dec.vectors[:, _support_mask(dec.values, tol, "support_projector")]
    return cols @ cols.conj().T, cols.shape[1]


def func_on_support(
    a,
    f: Callable[[np.ndarray], np.ndarray],
    off_support_value: float = 0.0,
    tol: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Apply a scalar function spectrally on the support of a PSD operator.

    Eigenvalues on the support (see _support_mask) are mapped through
    ``f``; eigenvalues on the kernel are assigned ``off_support_value``.
    Used with f = log for pseudo-logarithms.
    """
    dec = spectral_decompose(a)
    mask = _support_mask(dec.values, tol, "func_on_support")
    mapped = np.full(dec.dim, float(off_support_value))
    if mask.any():
        fv = np.asarray(f(dec.values[mask]), dtype=float)
        if not np.all(np.isfinite(fv)):
            bad = dec.values[mask][~np.isfinite(fv)][0]
            raise ValidationError(f"function evaluates non-finite on in-support eigenvalue {bad!r}")
        mapped[mask] = fv
    return (dec.vectors * mapped) @ dec.vectors.conj().T


def compressed_exp(f, n, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Exponential of F with an infinitely suppressed subspace.

    For a Hermitian F and an orthogonal projector N, returns
    Q exp(Q F Q |_range(Q)) Q with Q = I - N: the exponential of the
    compression of F to the complement of range(N), embedded back into
    the full space.  This is the limit of exp(F - s N) as the suppression
    strength s goes to +infinity, and the canonical realization of
    exponentials of observables carrying a formally infinite branch.
    """
    fm = require_hermitian(f)
    nm = require_projector(n)
    if fm.shape != nm.shape:
        raise ValidationError(f"dimension mismatch: F is {fm.shape}, N is {nm.shape}")
    values, cols, _ = _compressed_eigh(fm, nm, tol)
    out = (cols * np.exp(values)) @ cols.conj().T
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
