"""Projective measurements with back-action, extended observables, POVMs,
and the probe-based orthogonal realization of a POVM.

An extended observable carries a spectral list of (value, eigenvector
block) branches where at most one value may be +infinity; that branch
marks the subspace on which exp(-A) vanishes, keeping the exponential
bounded.  Projective measurements, Naimark dilations and extended
observables share one representation: the columns of a unitary grouped
into branch blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .operator_core import (
    DEFAULT_TOLS,
    Tolerances,
    as_matrix,
    basis_projector,
    group_eigenspaces,
    kron,
    max_abs,
    require_density_matrix,
    require_hermitian,
    require_projector,
    spectral_decompose,
)


# Largest argument whose exponential is a finite double.
_EXP_LIMIT = math.log(np.finfo(float).max)


def _projector_columns(p: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of a validated projector."""
    w, v = np.linalg.eigh(p)
    return v[:, w > 0.5]


def _stack_blocks(
    blocks: Sequence[np.ndarray], tol: Tolerances, what: str
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Concatenate column blocks into V and check that they form a complete
    orthonormal basis: ranks summing to the dimension together with
    V†V = I within proj_tol give mutual orthogonality and completeness."""
    if not blocks:
        raise ValidationError(f"{what} needs at least one branch")
    dim = blocks[0].shape[0]
    if any(b.shape[0] != dim for b in blocks):
        raise ValidationError(f"{what}: branches have mixed dimensions")
    ranks = [b.shape[1] for b in blocks]
    if min(ranks) == 0:
        raise ValidationError(f"{what}: branch {ranks.index(0)} has rank 0")
    total = sum(ranks)
    if total < dim:
        raise ValidationError(f"{what}: incomplete, branch ranks sum to {total} < dimension {dim}")
    if total > dim:
        raise ValidationError(f"{what}: branches overlap, ranks sum to {total} > dimension {dim}")
    vectors = np.concatenate(blocks, axis=1)
    defect = max_abs(vectors.conj().T @ vectors - np.eye(dim))
    if defect > tol.proj_tol:
        raise ValidationError(
            f"{what}: branches overlap or are not orthonormal, |V†V - I| = {defect:.3e} "
            f"exceeds proj_tol"
        )
    return vectors, tuple(np.cumsum([0, *ranks]).tolist())


@dataclass(frozen=True, eq=False)
class BranchBlocks:
    """Complete family of mutually orthogonal projectors held as column
    blocks of one unitary: branch b projects onto the span of
    vectors[:, offsets[b]:offsets[b+1]]."""

    vectors: np.ndarray        # (n, n) unitary, columns grouped by branch
    offsets: tuple[int, ...]   # (B + 1,) block boundaries, offsets[-1] = n

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def blocks(self) -> list[np.ndarray]:
        return [self.vectors[:, a:b] for a, b in zip(self.offsets, self.offsets[1:])]

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Branch projectors V_b V_b†, built on each access."""
        return tuple(cols @ cols.conj().T for cols in self.blocks())


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement(BranchBlocks):
    """Complete family of mutually orthogonal projectors."""

    @classmethod
    def create(cls, projectors: Iterable, tol: Tolerances = DEFAULT_TOLS) -> "ProjectiveMeasurement":
        blocks = [_projector_columns(require_projector(p, tol)) for p in projectors]
        vectors, offsets = _stack_blocks(blocks, tol, "projective measurement")
        return cls(vectors=vectors, offsets=offsets)


@dataclass(frozen=True, eq=False)
class ExtendedObservable(BranchBlocks):
    """Spectral branches (value, eigenvector block), +infinity allowed once.

    Branch b has value values[b] and projector V_b V_b† with the
    orthonormal block V_b = vectors[:, offsets[b]:offsets[b+1]].  Branches
    are kept sorted by value with the infinite branch last, and finite
    values are pairwise distinct beyond degeneracy_tol.  The blocks
    together form one unitary V; a single check (ranks summing to n and
    |V†V - I| <= proj_tol) certifies that the projectors are mutually
    orthogonal and complete.  ``projectors`` is derived on demand.
    """

    values: tuple[float, ...]

    @classmethod
    def create(
        cls, branches: Iterable[tuple[float, np.ndarray]], tol: Tolerances = DEFAULT_TOLS
    ) -> "ExtendedObservable":
        """Validated construction from (value, projector) branches."""
        return cls.from_blocks(
            ((value, _projector_columns(require_projector(p, tol))) for value, p in branches), tol
        )

    @classmethod
    def from_blocks(
        cls, branches: Iterable[tuple[float, np.ndarray]], tol: Tolerances = DEFAULT_TOLS
    ) -> "ExtendedObservable":
        """Construction from (value, orthonormal column block) branches.

        Finite branches are sorted by value; all +infinity branches merge
        into one last branch.
        """
        finite: list[tuple[float, np.ndarray]] = []
        infinite: list[np.ndarray] = []
        for value, cols in branches:
            v = float(value)
            if math.isinf(v):
                if v < 0:
                    raise ValidationError("-infinity branch values are not supported")
                infinite.append(cols)
            elif math.isnan(v):
                raise ValidationError("NaN branch value")
            else:
                finite.append((v, cols))
        finite.sort(key=lambda b: b[0])
        for (va, _), (vb, _) in zip(finite, finite[1:]):
            if vb - va <= tol.degeneracy_tol:
                raise ValidationError(
                    f"finite branch values {va!r} and {vb!r} are not distinct beyond "
                    f"degeneracy_tol; merge their projectors first"
                )
        values = [v for v, _ in finite]
        blocks = [c for _, c in finite]
        if infinite:
            values.append(math.inf)
            blocks.append(np.concatenate(infinite, axis=1))
        vectors, offsets = _stack_blocks(blocks, tol, "extended observable")
        return cls(vectors=vectors, offsets=offsets, values=tuple(values))

    @property
    def has_infinite_branch(self) -> bool:
        return bool(self.values) and math.isinf(self.values[-1])

    def _finite_function(self, f) -> np.ndarray:
        """V_fin diag(f(v)) V_fin† over the columns of the finite branches."""
        n_finite = len(self.values) - self.has_infinite_branch
        values = np.array(self.values[:n_finite])
        cols = self.vectors[:, : self.offsets[n_finite]]
        return (cols * np.repeat(f(values), np.diff(self.offsets[: n_finite + 1]))) @ cols.conj().T

    def finite_matrix(self) -> np.ndarray:
        """Hermitian sum of the finite branches (+infinity branch omitted)."""
        return self._finite_function(lambda v: v)

    def measurement(self) -> ProjectiveMeasurement:
        return ProjectiveMeasurement(vectors=self.vectors, offsets=self.offsets)

    def exp_neg(self) -> np.ndarray:
        """exp(-A) with the +infinity branch mapped to the kernel."""
        if self.values[0] < -_EXP_LIMIT:
            raise ValidationError(
                f"exp(-A) overflows: branch value {self.values[0]!r} is below -{_EXP_LIMIT:.2f}"
            )
        return self._finite_function(lambda v: np.exp(-v))

    def exp_pos(self) -> np.ndarray:
        """exp(+A); requires a finite spectrum."""
        if self.has_infinite_branch:
            raise ValidationError("exp(+A) is unbounded for an observable with a +infinity branch")
        if self.values[-1] > _EXP_LIMIT:
            raise ValidationError(
                f"exp(+A) overflows: branch value {self.values[-1]!r} exceeds {_EXP_LIMIT:.2f}"
            )
        return self._finite_function(np.exp)


def observable_from_hermitian(h, tol: Tolerances = DEFAULT_TOLS) -> ExtendedObservable:
    """Wrap a Hermitian matrix as a finite extended observable, grouping
    eigenvalues closer than degeneracy_tol into joint eigenspaces whose
    eigenvector blocks become the branches."""
    dec = spectral_decompose(h, tol)
    return ExtendedObservable.from_blocks(group_eigenspaces(dec, tol.degeneracy_tol), tol)


def measurement_channel(rho, m: BranchBlocks) -> np.ndarray:
    """Non-selective back-action map sum_b P_b rho P_b, computed as
    V blockdiag(V† rho V) V† over the branch blocks of m."""
    state = as_matrix(rho)
    if state.shape[0] != m.dim:
        raise ValidationError(f"dimension mismatch: state {state.shape[0]}, measurement {m.dim}")
    ranks = np.diff(m.offsets)
    labels = np.repeat(np.arange(ranks.size), ranks)
    inner = m.vectors.conj().T @ state @ m.vectors
    inner = np.where(labels[:, None] == labels[None, :], inner, 0.0)
    return m.vectors @ inner @ m.vectors.conj().T


@dataclass(frozen=True, eq=False)
class POVM:
    """Positive operator valued measure: PSD elements summing to identity."""

    elements: tuple[np.ndarray, ...]

    @classmethod
    def create(cls, elements: Iterable, tol: Tolerances = DEFAULT_TOLS) -> "POVM":
        els = []
        for i, e in enumerate(elements):
            m = require_hermitian(e, tol)
            lo = float(np.linalg.eigvalsh(m)[0])
            if lo < -tol.psd_tol:
                raise ValidationError(f"POVM element {i} has negative eigenvalue {lo:.3e}")
            els.append(m)
        if not els:
            raise ValidationError("a POVM needs at least one element")
        dim = els[0].shape[0]
        if any(e.shape[0] != dim for e in els):
            raise ValidationError("POVM elements have mixed dimensions")
        defect = max_abs(sum(els) - np.eye(dim))
        if defect > tol.proj_tol:
            raise ValidationError(f"POVM completeness defect {defect:.3e} exceeds proj_tol")
        return cls(elements=tuple(els))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def povm_probabilities(rho, povm: POVM, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Born-rule outcome probabilities trace(rho M_k).

    Small negative values (rounding noise within prob_floor) are clipped
    to zero; larger negativity is rejected.
    """
    state = require_density_matrix(rho, tol)
    if state.shape[0] != povm.dim:
        raise ValidationError(f"dimension mismatch: state {state.shape[0]}, POVM {povm.dim}")
    probs = np.array([float(np.trace(state @ m).real) for m in povm.elements])
    if probs.min() < -tol.prob_floor:
        raise ValidationError(f"POVM probability {probs.min():.3e} below -prob_floor")
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValidationError(f"POVM probabilities sum to {probs.sum()!r}, not 1")
    return probs


@dataclass(frozen=True, eq=False)
class NaimarkDilation(BranchBlocks):
    """Projective realization of a POVM on encoding (x) probe.

    The probe has dimension equal to the POVM outcome count and starts in
    |0>.  Branch k is the block spanning the range of
    Pi_k = U†(I (x) |k><k|)U for the completed unitary U; the probe-|0>
    compression of Pi_k reproduces the POVM element it dilates.
    """

    probe_dim: int

    @property
    def encoding_dim(self) -> int:
        return self.dim // self.probe_dim

    def povm_element(self, k: int) -> np.ndarray:
        """Probe-state compression <0|Pi_k|0> = A A†, with A the probe-|0>
        rows of branch k's block, acting on the encoding space."""
        a = self.vectors[:: self.probe_dim, self.offsets[k]:self.offsets[k + 1]]
        return a @ a.conj().T


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root via spectral decomposition, clipping rounding-level
    negative eigenvalues; deeper negativity was already rejected."""
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _dilate(povm: POVM, candidates: np.ndarray, tol: Tolerances) -> NaimarkDilation:
    """Complete the square-root isometry |psi> -> sum_k (sqrt(M_k)|psi>) (x) |k>
    to a unitary U with one QR of [isometry | candidates], and hold the
    dilated projectors as branch blocks."""
    d, kp = povm.dim, povm.n_outcomes
    n = d * kp
    isometry = np.zeros((n, d), dtype=complex)
    view = isometry.reshape(d, kp, d)
    for k, element in enumerate(povm.elements):
        view[:, k, :] = _psd_sqrt(element)
    defect = max_abs(isometry.conj().T @ isometry - np.eye(d))
    if defect > tol.proj_tol * 10:
        raise ValidationError(f"POVM isometry defect {defect:.3e}; completeness too loose")
    q, _ = np.linalg.qr(np.hstack([isometry, candidates]), mode="complete")
    # Columns for |i> (x) |0> carry the isometry; the rest take the completion,
    # which QR makes orthogonal to the isometry's range.
    u = np.empty((n, n), dtype=complex)
    u[:, ::kp] = isometry
    u[:, np.arange(n) % kp != 0] = q[:, d:]
    unit_defect = max_abs(u.conj().T @ u - np.eye(n))
    if unit_defect > 1e-10:
        raise ValidationError(f"unitary completion defect {unit_defect:.3e} exceeds 1e-10")
    # The range of Pi_k is spanned by the conjugated rows k, k+K, k+2K, ... of U.
    vectors = u.reshape(d, kp, n).transpose(1, 0, 2).reshape(n, n).conj().T
    dilation = NaimarkDilation(vectors=vectors, offsets=tuple(range(0, n + 1, d)), probe_dim=kp)
    for k in range(kp):
        defect = max_abs(dilation.povm_element(k) - povm.elements[k])
        if defect > 1e-10:
            raise ValidationError(
                f"dilation contract violated for element {k}: probe-block defect {defect:.3e}"
            )
    return dilation


def naimark_dilate(povm: POVM, tol: Tolerances = DEFAULT_TOLS) -> NaimarkDilation:
    """Canonical probe dilation of a POVM.

    Builds the square-root isometry |psi> -> sum_k (sqrt(M_k)|psi>) (x) |k>,
    completes its columns to a unitary U with the QR of the isometry, and
    conjugates the probe projectors back.  The probe-block of projector k
    reproduces M_k within 1e-10.  Every quantity of the composite
    construction depends on the projectors only through these probe
    blocks, so any other completion gives the same results to rounding.
    """
    return _dilate(povm, np.zeros((povm.dim * povm.n_outcomes, 0)), tol)


def naimark_dilate_randomized(
    povm: POVM, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOLS
) -> NaimarkDilation:
    """Dilation with a randomized unitary completion.

    Same probe construction and contract as naimark_dilate, but the
    completion comes from the QR of the isometry followed by Gaussian
    columns drawn from rng.  Used to check that derived quantities do not
    depend on the choice of dilation.
    """
    n, d = povm.dim * povm.n_outcomes, povm.dim
    return _dilate(povm, rng.normal(size=(n, n - d)) + 1j * rng.normal(size=(n, n - d)), tol)


def dilation_probabilities(
    rho, dilation: NaimarkDilation, tol: Tolerances = DEFAULT_TOLS
) -> np.ndarray:
    """Outcome probabilities of the dilated orthogonal measurement on
    rho (x) |0><0|; must match povm_probabilities on the original POVM."""
    state = require_density_matrix(rho, tol)
    embedded = kron(state, basis_projector(dilation.probe_dim, 0))
    return np.array(
        [float(np.trace(cols.conj().T @ embedded @ cols).real) for cols in dilation.blocks()]
    )
