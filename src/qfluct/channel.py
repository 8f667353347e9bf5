"""Trace-preserving completely positive maps in Kraus form, unitary
channels from piecewise-constant protocols, and physicality validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .operator_core import (
    DEFAULT_TOLS,
    Tolerances,
    as_matrix,
    max_abs,
    require_hermitian,
    spectral_decompose,
)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Square (dimension-preserving) channel in Kraus form."""

    kraus_ops: tuple[np.ndarray, ...]

    @classmethod
    def create(cls, kraus_ops: Iterable) -> "KrausChannel":
        ops = tuple(as_matrix(k) for k in kraus_ops)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(k.shape[0] != dim for k in ops):
            raise ValidationError("Kraus operators have mixed dimensions")
        defect = _completeness_defect(ops)
        if defect > 1e-10:
            raise ValidationError(
                f"Kraus completeness defect {defect:.3e} exceeds 1e-10 (sum K†K != I)"
            )
        return cls(kraus_ops=ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def _completeness_defect(ops: tuple[np.ndarray, ...]) -> float:
    dim = ops[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for k in ops:
        acc += k.conj().T @ k
    return max_abs(acc - np.eye(dim))


def apply_channel(channel: KrausChannel, rho) -> np.ndarray:
    """Apply the channel: sum_k K_k rho K_k†."""
    state = as_matrix(rho)
    if state.shape[0] != channel.dim:
        raise ValidationError(
            f"dimension mismatch: state {state.shape[0]}, channel {channel.dim}"
        )
    out = np.zeros_like(state)
    for k in channel.kraus_ops:
        out += k @ state @ k.conj().T
    return out


@dataclass(frozen=True)
class TcpValidationReport:
    """Report-style physicality check: trace preservation via Kraus
    completeness, complete positivity via the Choi spectrum."""

    completeness_defect: float
    choi_min_eigenvalue: float
    trace_preserving: bool
    completely_positive: bool

    @property
    def passed(self) -> bool:
        return self.trace_preserving and self.completely_positive


def validate_tcp(channel: KrausChannel, tol: Tolerances = DEFAULT_TOLS) -> TcpValidationReport:
    defect = _completeness_defect(channel.kraus_ops)
    # Choi matrix sum_ij |i><j| (x) E(|i><j|) = sum_k vec(K_k) vec(K_k)†
    vecs = np.stack([k.T.reshape(-1) for k in channel.kraus_ops], axis=1)
    choi = vecs @ vecs.conj().T
    choi_min = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0])
    return TcpValidationReport(
        completeness_defect=defect,
        choi_min_eigenvalue=choi_min,
        trace_preserving=defect <= 1e-10,
        completely_positive=choi_min >= -tol.psd_tol,
    )


@dataclass(frozen=True, eq=False)
class EvolutionProtocol:
    """Piecewise-constant Hamiltonian protocol (H_1, t_1), ..., (H_n, t_n)."""

    steps: tuple[tuple[np.ndarray, float], ...]

    @classmethod
    def create(
        cls, steps: Iterable[tuple[np.ndarray, float]], tol: Tolerances = DEFAULT_TOLS
    ) -> "EvolutionProtocol":
        validated = []
        for h, duration in steps:
            hm = require_hermitian(h, tol)
            t = float(duration)
            if t < 0:
                raise ValidationError(f"step duration {t} is negative")
            validated.append((hm, t))
        if not validated:
            raise ValidationError("protocol needs at least one step")
        dim = validated[0][0].shape[0]
        if any(h.shape[0] != dim for h, _ in validated):
            raise ValidationError("protocol Hamiltonians have mixed dimensions")
        return cls(steps=tuple(validated))

    @property
    def dim(self) -> int:
        return self.steps[0][0].shape[0]

    @property
    def final_hamiltonian(self) -> np.ndarray:
        return self.steps[-1][0]


def step_unitary(h, duration: float, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """exp(-i H t) computed spectrally, exact at any step size."""
    dec = spectral_decompose(h, tol)
    return (dec.vectors * np.exp(-1j * dec.values * duration)) @ dec.vectors.conj().T


def unitary_from_protocol(
    protocol: EvolutionProtocol, tol: Tolerances = DEFAULT_TOLS
) -> KrausChannel:
    """Time-ordered unitary of the protocol as a single-Kraus channel.

    Later steps multiply on the left: U = exp(-i H_n t_n) ... exp(-i H_1 t_1).
    """
    u = np.eye(protocol.dim, dtype=complex)
    for h, duration in protocol.steps:
        u = step_unitary(h, duration, tol) @ u
    defect = max_abs(u.conj().T @ u - np.eye(protocol.dim))
    if defect > 1e-10:
        raise ValidationError(f"protocol unitary defect {defect:.3e} exceeds 1e-10")
    return KrausChannel.create([u])


def _check_strength(q: float) -> float:
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"channel strength {q} outside [0, 1]")
    return q


def identity_channel(dim: int = 2) -> KrausChannel:
    return KrausChannel.create([np.eye(dim, dtype=complex)])


def depolarizing_channel(q: float, dim: int = 2) -> KrausChannel:
    """rho -> (1-q) rho + q I/dim."""
    q = _check_strength(q)
    ops = [np.sqrt(1.0 - q) * np.eye(dim, dtype=complex)]
    if q > 0:
        for i in range(dim):
            for j in range(dim):
                e = np.zeros((dim, dim), dtype=complex)
                e[i, j] = np.sqrt(q / dim)
                ops.append(e)
    return KrausChannel.create(ops)


def dephasing_channel(q: float, dim: int = 2) -> KrausChannel:
    """rho -> (1-q) rho + q diag(rho); q=1 removes all coherences."""
    q = _check_strength(q)
    ops = [np.sqrt(1.0 - q) * np.eye(dim, dtype=complex)]
    if q > 0:
        for i in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, i] = np.sqrt(q)
            ops.append(e)
    return KrausChannel.create(ops)


def bit_flip_channel(q: float, dim: int = 2) -> KrausChannel:
    """Flip via the cyclic shift with probability q (Pauli X at dim 2)."""
    q = _check_strength(q)
    shift = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        shift[(i + 1) % dim, i] = 1.0
    return KrausChannel.create(
        [np.sqrt(1.0 - q) * np.eye(dim, dtype=complex), np.sqrt(q) * shift]
    )


def amplitude_damping_channel(q: float, dim: int = 2) -> KrausChannel:
    """Decay of every excited level to the ground state with probability q."""
    q = _check_strength(q)
    k0 = np.eye(dim, dtype=complex)
    for i in range(1, dim):
        k0[i, i] = np.sqrt(1.0 - q)
    ops = [k0]
    for i in range(1, dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[0, i] = np.sqrt(q)
        ops.append(e)
    return KrausChannel.create(ops)
