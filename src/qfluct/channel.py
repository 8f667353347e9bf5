"""Trace-preserving completely positive maps in Kraus form and unitary
channels from piecewise-constant protocols."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ValidationError
from .operator_core import (
    ALGEBRA_TOL,
    as_matrix,
    max_abs,
    _as_float,
    _as_matrices,
    _checked_eigh,
    _hermitian,
    _integer,
    _verified_eigh,
)


# Entries c * d * d of one chunk of Kraus operators (see _kraus_chunks).  At
# c = _CHUNK_ENTRIES // d² every product of a chunk, c * d³ multiply-adds,
# stays below 2**16 whenever c > 1: from that size on OpenBLAS splits a GEMM
# over threads, which runs about ten times slower once scipy's BLAS has also
# run in the process.  2047 is the largest value that keeps the bound at
# every d (at d = 32 a chunk of two would reach it).
_CHUNK_ENTRIES = 2047


def _kraus_chunks(kraus_ops: tuple[np.ndarray, ...]) -> Iterator[np.ndarray]:
    """The Kraus operators in order, as stacks (c, d, d) of at most
    max(1, _CHUNK_ENTRIES // d²) operators each; none for an empty tuple.
    A loop over the chunks turns the per-operator products into tall GEMMs
    of bounded size and never holds a stacked copy of the whole tuple; a
    chunk of one operator is a view, not a copy."""
    if not kraus_ops:
        return
    d = kraus_ops[0].shape[-1]
    size = max(1, _CHUNK_ENTRIES // (d * d))
    for start in range(0, len(kraus_ops), size):
        chunk = kraus_ops[start : start + size]
        yield chunk[0][None] if len(chunk) == 1 else np.concatenate(chunk).reshape(-1, d, d)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Square (dimension-preserving) channel in Kraus form.

    kraus_ops is the caller's tuple.  On construction the operators are
    split once: a matrix unit alpha |a><b| (exactly one nonzero entry), a
    quantum jump, adds |alpha|² to the real jump-rate matrix W[a, b]
    (_jumps); an all-zero operator is dropped; every other operator joins
    the dense remainder (_dense).  The Kraus loops run over the dense
    remainder in chunks and take W in closed form, O(d³) whatever the
    number of jumps: the completeness sum here, apply_channel (the trace
    route's channel applied to an operator) and the transition pass of
    ttm._joint_blocks (the enumeration route).  Both routes still share
    only the channel.  With no matrix unit W is None and every loop runs
    the dense remainder alone, with no array work added for W.  A channel
    whose operators are all zero is the zero map: no dense remainder and
    W = 0."""

    kraus_ops: tuple[np.ndarray, ...]
    _dense: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _jumps: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        dense, jumps = [], None
        for k in self.kraus_ops:
            count = np.count_nonzero(k)
            if count > 1:
                dense.append(k)
            elif count == 1:
                if jumps is None:
                    jumps = np.zeros(k.shape)
                a, b = divmod(int(np.flatnonzero(k)[0]), k.shape[-1])
                jumps[a, b] += abs(k[a, b]) ** 2
        if self.kraus_ops and not dense and jumps is None:
            # every operator is zero: the zero map, W = 0
            jumps = np.zeros(self.kraus_ops[0].shape)
        object.__setattr__(self, "_dense", tuple(dense))
        object.__setattr__(self, "_jumps", jumps)

    @classmethod
    def create(cls, kraus_ops: Iterable) -> "KrausChannel":
        """A channel of square operators of one dimension with
        sum K†K = I within ALGEBRA_TOL: the dense remainder's sum plus
        diag of W's column sums."""
        ops = tuple(as_matrix(k) for k in kraus_ops)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(k.shape[0] != dim for k in ops):
            raise ValidationError("Kraus operators have mixed dimensions")
        channel = cls(kraus_ops=ops)
        acc = np.zeros((dim, dim), dtype=complex)
        for chunk in _kraus_chunks(channel._dense):
            flat = chunk.reshape(-1, dim)
            acc += flat.conj().T @ flat
        if channel._jumps is not None:
            # K†K = |alpha|² |b><b| for alpha |a><b|
            acc += np.diag(channel._jumps.sum(axis=0))
        defect = max_abs(acc - np.eye(dim))
        if defect > ALGEBRA_TOL:
            raise ValidationError(
                f"Kraus completeness defect {defect:.3e} exceeds {ALGEBRA_TOL:g} (sum K†K != I)"
            )
        return channel

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def apply_channel(channel: KrausChannel, rho) -> np.ndarray:
    """Apply the channel: sum_k K_k rho K_k†, to one matrix or to each
    matrix of a stack (..., d, d).  This is the trace route's channel
    applied to an operator.  Per chunk of n dense operators (see
    _kraus_chunks) it is two GEMMs: the stacked K_k rho, (n d, d), then the
    row of blocks [K_1 rho ... K_n rho] times the column [K_1†; ...; K_n†].
    The jumps add diag(W diag(rho)), since alpha |a><b| rho (alpha |a><b|)†
    = |alpha|² rho_bb |a><a|.  The enumeration route reads W on its own
    (ttm._joint_blocks); the two routes share only the channel."""
    state = _as_matrices(rho)
    d = channel.dim
    if state.shape[-1] != d:
        raise ValidationError(
            f"dimension mismatch: state {state.shape[-1]}, channel {d}"
        )
    lead = state.shape[:-2]
    out = 0.0
    for chunk in _kraus_chunks(channel._dense):
        n = len(chunk)
        stacked = (chunk.reshape(n * d, d) @ state).reshape(lead + (n, d, d))
        row = stacked.swapaxes(-3, -2).reshape(lead + (d, n * d))
        out += row @ chunk.conj().swapaxes(-1, -2).reshape(n * d, d)
    if channel._jumps is not None:
        out += (state.diagonal(axis1=-2, axis2=-1) @ channel._jumps.T)[..., None] * np.eye(d)
    return out


@dataclass(frozen=True, eq=False)
class EvolutionProtocol:
    """Piecewise-constant Hamiltonian protocol (H_1, t_1), ..., (H_n, t_n).

    The steps' eigendecomposition belongs to the protocol and is derived
    once, as KrausChannel splits its operators once: _spectra holds the
    eigenpairs (n, d) and (n, d, d) of the stacked steps, and _channel the
    unitary built from them on first use.  create checks every step's
    Hermiticity once, on the stack, and keeps the symmetrized steps as
    read-only rows of that stack, its own copies; a protocol from the raw
    constructor is checked in full on the first use of _spectra.
    jarzynski_scenario and unitary_from_protocol read both, so a protocol
    evaluated at many temperatures or initial Hamiltonians decomposes its
    steps once.  Neither is cached while it raises, so an error comes
    again from every later use."""

    steps: tuple[tuple[np.ndarray, float], ...]

    @classmethod
    def create(cls, steps: Iterable[tuple[np.ndarray, float]]) -> "EvolutionProtocol":
        """Hermitian steps of one dimension, finite non-negative durations."""
        matrices, durations = [], []
        for i, (h, duration) in enumerate(steps):
            matrices.append(as_matrix(h))
            t = _as_float(duration, f"step {i} duration")
            if not math.isfinite(t):
                raise ValidationError(f"step {i} duration {t} is not finite")
            if t < 0:
                raise ValidationError(f"step {i} duration {t} is negative")
            durations.append(t)
        if not matrices:
            raise ValidationError("protocol needs at least one step")
        dim = matrices[0].shape[0]
        if any(h.shape[0] != dim for h in matrices):
            raise ValidationError("protocol Hamiltonians have mixed dimensions")
        stack = _hermitian(np.stack(matrices), "step")
        stack.setflags(write=False)
        protocol = cls(steps=tuple(zip(stack, durations)))
        # the cached property's slot, filled without a second Hermiticity pass
        protocol.__dict__["_spectra"] = _verified_eigh(stack, "step")
        return protocol

    @property
    def dim(self) -> int:
        return self.steps[0][0].shape[0]

    @property
    def final_hamiltonian(self) -> np.ndarray:
        return self.steps[-1][0]

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """The steps' eigenpairs from one checked eigh of their stack; an
        error names the step ("step i")."""
        return _checked_eigh(np.stack([h for h, _ in self.steps]), "step")

    @cached_property
    def _channel(self) -> KrausChannel:
        """The time-ordered unitary of _spectra as a read-only single-Kraus
        channel."""
        values, vectors = self._spectra
        channel = KrausChannel.create([_unitary(values, vectors, [t for _, t in self.steps])])
        channel.kraus_ops[0].setflags(write=False)
        return channel


def _unitary(values: np.ndarray, vectors: np.ndarray, durations: Iterable[float]) -> np.ndarray:
    """Time-ordered product of V_k exp(-i E_k t_k) V_k† from the steps'
    eigenpairs, (n, d) values and (n, d, d) vectors; exact at any step size
    whose phases E t are finite doubles."""
    u = np.eye(values.shape[-1], dtype=complex)
    for e, v, t in zip(values, vectors, durations):
        energy = float(np.abs(e).max())
        # a Python float product, which overflows to inf without a warning
        if not math.isfinite(energy * t):
            raise ValidationError(
                f"step of duration {t!r}: the phase E t = {energy!r} * {t!r} is not a finite double"
            )
        u = (v * np.exp(-1j * e * t)) @ v.conj().T @ u
    return u


def unitary_from_protocol(protocol: EvolutionProtocol) -> KrausChannel:
    """Time-ordered unitary of the protocol as a single-Kraus channel.
    Later steps multiply on the left: U = exp(-i H_n t_n) ... exp(-i H_1 t_1).
    It is the protocol's own channel, built once from the protocol's step
    spectra; its operator is read-only.  No eigh runs here."""
    return protocol._channel


def _check_strength(q: float) -> float:
    q = _as_float(q, "channel strength")
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"channel strength {q} outside [0, 1]")
    return q


def identity_channel(dim: int = 2) -> KrausChannel:
    return KrausChannel.create([np.eye(_integer(dim, "dim", 1), dtype=complex)])


def depolarizing_channel(q: float, dim: int = 2) -> KrausChannel:
    """rho -> (1-q) rho + q I/dim."""
    q, dim = _check_strength(q), _integer(dim, "dim", 1)
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
    q, dim = _check_strength(q), _integer(dim, "dim", 1)
    ops = [np.sqrt(1.0 - q) * np.eye(dim, dtype=complex)]
    if q > 0:
        for i in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, i] = np.sqrt(q)
            ops.append(e)
    return KrausChannel.create(ops)


def bit_flip_channel(q: float, dim: int = 2) -> KrausChannel:
    """Flip via the cyclic shift with probability q (Pauli X at dim 2)."""
    q, dim = _check_strength(q), _integer(dim, "dim", 1)
    shift = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        shift[(i + 1) % dim, i] = 1.0
    return KrausChannel.create(
        [np.sqrt(1.0 - q) * np.eye(dim, dtype=complex), np.sqrt(q) * shift]
    )


def amplitude_damping_channel(q: float, dim: int = 2) -> KrausChannel:
    """Decay of every excited level to the ground state with probability q."""
    q, dim = _check_strength(q), _integer(dim, "dim", 1)
    k0 = np.eye(dim, dtype=complex)
    for i in range(1, dim):
        k0[i, i] = np.sqrt(1.0 - q)
    ops = [k0]
    for i in range(1, dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[0, i] = np.sqrt(q)
        ops.append(e)
    return KrausChannel.create(ops)
