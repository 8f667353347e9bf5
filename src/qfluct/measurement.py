"""Projective measurements with back-action, extended observables, POVMs,
and the probe-based orthogonal realization of a POVM.

An extended observable carries a spectral list of (value, eigenvector
block) branches where at most one value may be +infinity; that branch
marks the subspace on which exp(-A) vanishes, keeping the exponential
bounded.  Naimark dilations and extended observables share one
representation of a projective measurement: the columns of a unitary
grouped into branch blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ValidationError
from .operator_core import (
    ALGEBRA_TOL,
    DEFAULT_TOLS,
    Tolerances,
    as_matrix,
    basis_projector,
    kron,
    max_abs,
    require_density_matrix,
    require_hermitian,
    require_projector,
    spectral_decompose,
    _branch_starts,
    _cluster_means,
    _max_abs_each,
)


# Largest argument whose exponential is a finite double.
_EXP_LIMIT = math.log(np.finfo(float).max)


def _projector_columns(p: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of a validated projector."""
    w, v = np.linalg.eigh(p)
    return v[:, w > 0.5]


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


@dataclass(frozen=True, eq=False)
class ExtendedObservable(BranchBlocks):
    """Spectral branches (value, eigenvector block), +infinity allowed once.

    Branch b has value values[b] and projector V_b V_b† with the
    orthonormal block V_b = vectors[:, offsets[b]:offsets[b+1]].  Branches
    ascend with the infinite branch last, finite values are pairwise
    distinct beyond degeneracy_tol, and the blocks form one unitary V.
    """

    values: tuple[float, ...]

    @classmethod
    def create(
        cls, branches: Iterable[tuple[float, np.ndarray]], tol: Tolerances = DEFAULT_TOLS
    ) -> "ExtendedObservable":
        """Validated construction from (value, projector) branches."""
        return cls.from_blocks(
            ((value, _projector_columns(require_projector(p))) for value, p in branches), tol
        )

    @classmethod
    def from_blocks(
        cls, branches: Iterable[tuple[float, np.ndarray]], tol: Tolerances = DEFAULT_TOLS
    ) -> "ExtendedObservable":
        """Construction from (value, orthonormal column block) branches:
        finite branches sorted by value, all +infinity branches merged, in
        their order, into one last branch, then checked by _branches."""
        branches = list(branches)
        if not branches:
            raise ValidationError("extended observable needs at least one branch")
        values = np.array([float(value) for value, _ in branches])
        if np.isnan(values).any():
            raise ValidationError("NaN branch value")
        if (values == -math.inf).any():
            raise ValidationError("-infinity branch values are not supported")
        blocks = [cols for _, cols in branches]
        dim = blocks[0].shape[0]
        if any(b.shape[0] != dim for b in blocks):
            raise ValidationError("extended observable: branches have mixed dimensions")
        ranks = np.array([b.shape[1] for b in blocks])
        if not ranks.all():
            raise ValidationError(f"extended observable: branch {int(np.argmin(ranks))} has rank 0")
        total = int(ranks.sum())
        if total != dim:
            what, sign = ("incomplete", "<") if total < dim else ("branches overlap", ">")
            raise ValidationError(
                f"extended observable: {what}, branch ranks sum to {total} {sign} dimension {dim}"
            )
        # every finite branch starts a block, and so does the first +infinity
        order = np.argsort(values, kind="stable")
        values, ranks = values[order], ranks[order]
        first = np.append(True, np.isfinite(values[:-1]))
        starts = np.zeros((1, dim), dtype=bool)
        starts[0, (np.cumsum(ranks) - ranks)[first]] = True
        vectors = np.concatenate([blocks[b] for b in order], axis=1)[None]
        return _branches(values[first], starts, vectors, tol, lambda j: "extended observable").objects()[0]

    @property
    def has_infinite_branch(self) -> bool:
        return bool(self.values) and math.isinf(self.values[-1])


def _column_exp(values: np.ndarray, sign: float) -> np.ndarray:
    """exp(sign * v) of the branch or column values of one observable or of
    a stack.  exp(+A) needs a finite spectrum, neither exponential may
    overflow, and exp(-A) maps a +infinity value to 0, its kernel."""
    if sign > 0:
        if np.isinf(values).any():
            raise ValidationError("exp(+A) is unbounded for an observable with a +infinity branch")
        if values.max() > _EXP_LIMIT:
            raise ValidationError(
                f"exp(+A) overflows: branch value {float(values.max())!r} exceeds {_EXP_LIMIT:.2f}"
            )
    elif values.min() < -_EXP_LIMIT:
        raise ValidationError(
            f"exp(-A) overflows: branch value {float(values.min())!r} is below -{_EXP_LIMIT:.2f}"
        )
    return np.exp(sign * values)


@dataclass(frozen=True, eq=False)
class _Branches:
    """A stack of observables in array form, one half of the word blocks.
    Column a of observable j, vectors[j, :, a], lies in branch labels[j, a]
    of value values[labels[j, a]].  The labels ascend along each row and
    across the rows, so they are distinct across observables, and
    labels[j, 0] is observable j's first branch; within an observable the
    values ascend, +infinity only last."""

    vectors: np.ndarray  # (J, n, n) unitary columns grouped by branch
    labels: np.ndarray   # (J, n)
    values: np.ndarray   # (B,)

    def split(self, j: int) -> tuple["_Branches", "_Branches"]:
        """The first j observables and the rest, each labelled from 0."""
        cut = self.labels[j, 0]
        return (
            _Branches(self.vectors[:j], self.labels[:j], self.values[:cut]),
            _Branches(self.vectors[j:], self.labels[j:] - cut, self.values[cut:]),
        )

    @classmethod
    def of(cls, observable: ExtendedObservable) -> "_Branches":
        """One observable as a stack of one."""
        # a column's label counts the branch ends at or before it
        labels = np.searchsorted(observable.offsets[1:], np.arange(observable.dim), side="right")
        return cls(observable.vectors[None], labels[None], np.array(observable.values, dtype=float))

    def objects(self) -> list[ExtendedObservable]:
        """One ExtendedObservable per observable."""
        n = self.vectors.shape[-1]
        # each branch's first column, in the flattened labels, modulo n
        cols = (np.searchsorted(self.labels.ravel(), np.arange(self.values.size)) % n).tolist()
        first = [*self.labels[:, 0].tolist(), self.values.size]
        values = self.values.tolist()
        return [
            ExtendedObservable(vectors=v, offsets=(*cols[a:b], n), values=tuple(values[a:b]))
            for v, a, b in zip(self.vectors, first, first[1:])
        ]


def _branches(
    values: np.ndarray, starts: np.ndarray, vectors: np.ndarray, tol: Tolerances, name: Callable[[int], str]
) -> _Branches:
    """The stack checks: columns vectors (J, n, n) in branch blocks, where
    starts (J, n) flags the first column of each block and branch b, in
    row-major order, has value values[b] (ascending within an observable,
    +infinity only last).  One check over the stack, finite values distinct
    beyond degeneracy_tol and |V†V - I| <= ALGEBRA_TOL, certifies every
    observable; an error names the failing observable by name(j)."""
    rows = np.nonzero(starts)[0]
    finite = np.isfinite(values)
    filled = np.where(finite, values, 0.0)
    close = (rows[1:] == rows[:-1]) & finite[1:] & (filled[1:] - filled[:-1] <= tol.degeneracy_tol)
    if close.any():
        b = int(np.argmax(close))
        raise ValidationError(
            f"{name(int(rows[b]))}: finite branch values {float(values[b])!r} and "
            f"{float(values[b + 1])!r} are not distinct beyond degeneracy_tol; "
            f"merge their projectors first"
        )
    n = vectors.shape[-1]
    defect = _max_abs_each(vectors.conj().swapaxes(-1, -2) @ vectors - np.eye(n))
    if (defect > ALGEBRA_TOL).any():
        j = int(np.argmax(defect > ALGEBRA_TOL))
        raise ValidationError(
            f"{name(j)}: branches overlap or are not orthonormal, "
            f"|V†V - I| = {defect[j]:.3e} exceeds {ALGEBRA_TOL:g}"
        )
    return _Branches(vectors, starts.cumsum().reshape(starts.shape) - 1, values)


def _grouped(
    values: np.ndarray, vectors: np.ndarray, tol: Tolerances, name: Callable[[int], str]
) -> _Branches:
    """The grouping rule: observable j has value values[j, a] (+infinity
    allowed) on the column vectors[j, :, a], for a stack (J, n) of values
    and (J, n, n) of columns.  Each row is sorted stably (+infinity columns
    keep their order, last), grouped by _branch_starts into branches valued
    by _cluster_means, and checked by _branches; an error names observable
    j by name(j)."""
    nan = np.isnan(values).any(axis=-1)
    if nan.any():
        raise ValidationError(f"{name(int(np.argmax(nan)))}: NaN branch value")
    order = np.argsort(values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=-1)
    starts = _branch_starts(values, tol.degeneracy_tol)
    return _branches(_cluster_means(values, starts), starts, vectors, tol, name)


def observable_from_hermitian(h, tol: Tolerances = DEFAULT_TOLS) -> ExtendedObservable:
    """Wrap a Hermitian matrix as a finite extended observable, grouping
    eigenvalues closer than degeneracy_tol into joint eigenspaces whose
    eigenvector blocks become the branches: _grouped on a stack of one."""
    dec = spectral_decompose(h)
    return _grouped(dec.values[None], dec.vectors[None], tol, lambda j: "extended observable").objects()[0]


def measurement_channel(rho, m: BranchBlocks) -> np.ndarray:
    """Non-selective back-action map sum_b P_b rho P_b, computed as
    V blockdiag(V† rho V) V† over the branch blocks of m."""
    state = as_matrix(rho)
    if state.shape[0] != m.dim:
        raise ValidationError(f"dimension mismatch: state {state.shape[0]}, measurement {m.dim}")
    ranks = np.diff(m.offsets)
    labels = np.repeat(np.arange(ranks.size), ranks)
    inner = _dephased(m.vectors.conj().T @ state @ m.vectors, labels)
    return m.vectors @ inner @ m.vectors.conj().T


def _dephased(inner: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """V† rho V cut to its branch-diagonal blocks: the entries (..., a, b)
    whose columns a and b carry different branch labels (..., n) are zeroed."""
    return np.where(labels[..., :, None] == labels[..., None, :], inner, 0.0)


@dataclass(frozen=True, eq=False)
class POVM:
    """Positive operator valued measure: PSD elements summing to identity."""

    elements: tuple[np.ndarray, ...]

    @classmethod
    def create(cls, elements: Iterable) -> "POVM":
        """PSD elements summing to the identity, both within ALGEBRA_TOL."""
        els = []
        for i, e in enumerate(elements):
            m = require_hermitian(e)
            lo = float(np.linalg.eigvalsh(m)[0])
            if lo < -ALGEBRA_TOL:
                raise ValidationError(f"POVM element {i} has negative eigenvalue {lo:.3e}")
            els.append(m)
        if not els:
            raise ValidationError("a POVM needs at least one element")
        dim = els[0].shape[0]
        if any(e.shape[0] != dim for e in els):
            raise ValidationError("POVM elements have mixed dimensions")
        defect = max_abs(sum(els) - np.eye(dim))
        if defect > ALGEBRA_TOL:
            raise ValidationError(f"POVM completeness defect {defect:.3e} exceeds {ALGEBRA_TOL:g}")
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
    state = require_density_matrix(rho)
    if state.shape[0] != povm.dim:
        raise ValidationError(f"dimension mismatch: state {state.shape[0]}, POVM {povm.dim}")
    probs = np.array([float(np.trace(state @ m).real) for m in povm.elements])
    if probs.min() < -tol.prob_floor:
        raise ValidationError(f"POVM probability {probs.min():.3e} below -prob_floor")
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > ALGEBRA_TOL:
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


def naimark_dilate(povm: POVM) -> NaimarkDilation:
    """Canonical probe dilation of a POVM.

    Builds the square-root isometry |psi> -> sum_k (sqrt(M_k)|psi>) (x) |k>,
    completes its columns to a unitary U with the QR of the isometry, and
    conjugates the probe projectors back.  The isometry is checked at
    10 * ALGEBRA_TOL, U's unitarity at ALGEBRA_TOL, and the probe-block of
    projector k reproduces M_k within ALGEBRA_TOL.  Every quantity of the
    composite construction depends on the projectors only through these probe
    blocks, so any other completion gives the same results to rounding.
    """
    d, kp = povm.dim, povm.n_outcomes
    n = d * kp
    isometry = np.zeros((n, d), dtype=complex)
    view = isometry.reshape(d, kp, d)
    for k, element in enumerate(povm.elements):
        view[:, k, :] = _psd_sqrt(element)
    defect = max_abs(isometry.conj().T @ isometry - np.eye(d))
    if defect > ALGEBRA_TOL * 10:
        raise ValidationError(f"POVM isometry defect {defect:.3e}; completeness too loose")
    q, _ = np.linalg.qr(isometry, mode="complete")
    # Columns for |i> (x) |0> carry the isometry; the rest take the completion,
    # which QR makes orthogonal to the isometry's range.
    u = np.empty((n, n), dtype=complex)
    u[:, ::kp] = isometry
    u[:, np.arange(n) % kp != 0] = q[:, d:]
    unit_defect = max_abs(u.conj().T @ u - np.eye(n))
    if unit_defect > ALGEBRA_TOL:
        raise ValidationError(f"unitary completion defect {unit_defect:.3e} exceeds {ALGEBRA_TOL:g}")
    # The range of Pi_k is spanned by the conjugated rows k, k+K, k+2K, ... of U.
    vectors = u.reshape(d, kp, n).transpose(1, 0, 2).reshape(n, n).conj().T
    dilation = NaimarkDilation(vectors=vectors, offsets=tuple(range(0, n + 1, d)), probe_dim=kp)
    for k in range(kp):
        defect = max_abs(dilation.povm_element(k) - povm.elements[k])
        if defect > ALGEBRA_TOL:
            raise ValidationError(
                f"dilation contract violated for element {k}: probe-block defect {defect:.3e}"
            )
    return dilation


def dilation_probabilities(rho, dilation: NaimarkDilation) -> np.ndarray:
    """Outcome probabilities of the dilated orthogonal measurement on
    rho (x) |0><0|, for a state checked by require_density_matrix; must
    match povm_probabilities on the original POVM."""
    state = require_density_matrix(rho)
    if state.shape[0] != dilation.encoding_dim:
        raise ValidationError(
            f"dimension mismatch: state {state.shape[0]}, dilation encoding {dilation.encoding_dim}"
        )
    embedded = kron(state, basis_projector(dilation.probe_dim, 0))
    return np.array(
        [float(np.trace(cols.conj().T @ embedded @ cols).real) for cols in dilation.blocks()]
    )
