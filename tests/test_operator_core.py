import numpy as np
import pytest
from scipy.linalg import expm

import qfluct as qf
from qfluct.errors import ValidationError
from qfluct.rand import complex_gaussian, random_density_matrix, random_hermitian

from oracles import partial_trace, regularized_exp, regularized_exp_log_form


def test_spectral_decompose_diagonal():
    dec = qf.spectral_decompose(np.diag([2.0, 1.0]).astype(complex))
    assert np.allclose(dec.values, [1.0, 2.0])
    assert abs(abs(dec.vectors[1, 0]) - 1.0) < 1e-12
    assert abs(abs(dec.vectors[0, 1]) - 1.0) < 1e-12


def test_spectral_decompose_pauli_x():
    dec = qf.spectral_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(dec.values, [-1.0, 1.0])
    s = 1 / np.sqrt(2)
    for col, expected in [(0, [s, -s]), (1, [s, s])]:
        v = dec.vectors[:, col]
        phase = v[0] / abs(v[0])
        assert np.abs(v / phase - expected).max() < 1e-12


def test_spectral_decompose_random_reconstruction():
    rng = np.random.default_rng(0)
    h = random_hermitian(6, rng)
    dec = qf.spectral_decompose(h)
    assert np.abs(h - dec.reconstruct()).max() < 1e-10


def test_spectral_decompose_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="asymmetry"):
        qf.spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_group_eigenspaces_exact_degeneracy():
    dec = qf.spectral_decompose(np.diag([1.0, 1.0, 2.0]).astype(complex))
    groups = qf.group_eigenspaces(dec, 1e-9)
    projectors = [cols @ cols.conj().T for _, cols in groups]
    assert [round(float(np.trace(p).real)) for p in projectors] == [2, 1]
    assert [v for v, _ in groups] == [1.0, 2.0]


def test_group_eigenspaces_tolerance_forced_cluster():
    dec = qf.spectral_decompose(np.diag([0.0, 1e-14, 1.0]).astype(complex))
    groups = qf.group_eigenspaces(dec, 1e-12)
    assert len(groups) == 2
    cols = groups[0][1]
    assert round(float(np.trace(cols @ cols.conj().T).real)) == 2


def test_group_eigenspaces_nondegenerate():
    dec = qf.spectral_decompose(np.diag([1.0, 2.0, 3.0]).astype(complex))
    groups = qf.group_eigenspaces(dec, 1e-9)
    assert len(groups) == 3
    projectors = [cols @ cols.conj().T for _, cols in groups]
    assert np.abs(sum(projectors) - np.eye(3)).max() < 1e-12
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            if i != j:
                assert np.abs(p @ q).max() < 1e-12


def test_support_projector_diagonal():
    p, rank = qf.support_projector(np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert rank == 2
    assert np.abs(p - np.diag([1.0, 1.0, 0.0])).max() < 1e-12


def test_support_projector_pure_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    p, rank = qf.support_projector(plus)
    assert rank == 1
    assert np.abs(p - plus).max() < 1e-12


def test_support_projector_two_state_average():
    # average of |0><0| and |+><+| has eigenvalues (1 +- 1/sqrt(2))/2, both positive
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho_bar = 0.5 * np.diag([1.0, 0.0]).astype(complex) + 0.5 * plus
    evals = np.linalg.eigvalsh(rho_bar)
    assert np.allclose(sorted(evals), sorted([(1 - 1 / np.sqrt(2)) / 2, (1 + 1 / np.sqrt(2)) / 2]))
    p, rank = qf.support_projector(rho_bar)
    assert rank == 2
    assert np.abs(p - np.eye(2)).max() < 1e-12


def test_support_projector_zero_operator():
    p, rank = qf.support_projector(np.zeros((3, 3), dtype=complex))
    assert rank == 0
    assert np.abs(p).max() == 0.0


def test_func_on_support_log():
    out = qf.func_on_support(np.diag([np.e, 0.0]).astype(complex), np.log, 0.0)
    assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12


def test_func_on_support_inverse_gives_support_projector():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        for rank in range(1, d + 1):
            rho = random_density_matrix(d, rng, rank=rank)
            inv = qf.func_on_support(rho, lambda x: 1.0 / x)
            p, _ = qf.support_projector(rho)
            assert np.abs(rho @ inv - p).max() < 1e-9


def test_func_on_support_full_rank_scalar():
    out = qf.func_on_support(np.eye(2, dtype=complex) / 2, np.log, 0.0)
    assert np.abs(out - (-np.log(2)) * np.eye(2)).max() < 1e-12


def test_func_on_support_rejects_non_finite_values():
    with pytest.raises(ValidationError, match="non-finite"):
        qf.func_on_support(np.diag([1.0, 0.0]).astype(complex), lambda v: np.full_like(v, np.inf))


def test_pseudo_log_exp_roundtrip():
    rng = np.random.default_rng(2)
    for rank in (1, 2, 3):
        rho = random_density_matrix(3, rng, rank=rank)
        p, _ = qf.support_projector(rho)
        # exponentiation restricted to the support undoes the pseudo-log
        recovered = qf.compressed_exp(qf.pseudo_log(rho), np.eye(3) - p)
        assert np.abs(recovered - rho).max() < 1e-9


def test_compressed_exp_trivial_cases():
    n = np.diag([0.0, 1.0]).astype(complex)
    out = qf.compressed_exp(np.zeros((2, 2), dtype=complex), n)
    assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12

    f = np.diag([0.3, -1.2]).astype(complex)
    out = qf.compressed_exp(f, np.zeros((2, 2), dtype=complex))
    assert np.abs(out - np.diag([np.exp(0.3), np.exp(-1.2)])).max() < 1e-12
    assert np.abs(out - expm(f)).max() < 1e-10


def test_compressed_exp_pauli_x_regularization_limit():
    f = np.array([[0, 1], [1, 0]], dtype=complex)
    n = np.diag([0.0, 1.0]).astype(complex)
    limit = qf.compressed_exp(f, n)
    assert np.abs(limit - np.diag([1.0, 0.0])).max() < 1e-12
    # the log-form regularization converges (slowly) to the same limit
    errors = [
        np.abs(regularized_exp_log_form(f, n, eps) - limit).max()
        for eps in (1e-4, 1e-6, 1e-8)
    ]
    assert errors[0] > errors[1] > errors[2]
    # the penalty-form oracle at eps = 1e-8 is tight
    assert np.abs(regularized_exp(f, n, 1e-8) - limit).max() < 1e-6


def test_compressed_exp_matches_regularized_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = complex_gaussian(rng, (4, 4))
        f = (g + g.conj().T) / 2
        f /= max(1.0, np.abs(f).max())
        v = complex_gaussian(rng, 4)
        v /= np.linalg.norm(v)
        n = np.outer(v, v.conj())
        out = qf.compressed_exp(f, n)
        assert np.abs(out - regularized_exp(f, n, 1e-8)).max() < 1e-6


def test_compressed_exp_rejects_non_projector():
    with pytest.raises(ValidationError, match="projector"):
        qf.compressed_exp(np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex))


def test_kron_identity_and_diagonal():
    assert np.abs(qf.kron(np.eye(2), np.eye(3)) - np.eye(6)).max() == 0.0
    out = qf.kron(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]))
    assert np.abs(out - np.diag([1.0, 0.0, 2.0, 0.0])).max() == 0.0


def test_kron_mixed_product_rule():
    rng = np.random.default_rng(4)
    a, b, c, d = (complex_gaussian(rng, (2, 2)) for _ in range(4))
    lhs = qf.kron(a, b) @ qf.kron(c, d)
    rhs = qf.kron(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(2, rng)
    sigma = random_density_matrix(3, rng)
    sigma_scaled = 0.7 * sigma  # non-unit trace to catch missing factors
    out = partial_trace(qf.kron(rho, sigma_scaled), [2, 3], keep=[0])
    assert np.abs(out - rho * np.trace(sigma_scaled)).max() < 1e-12


def test_partial_trace_full_trace():
    rng = np.random.default_rng(6)
    m = complex_gaussian(rng, (6, 6))
    out = partial_trace(m, [2, 3], keep=[])
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.trace(m)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    m = complex_gaussian(rng, (12, 12))
    for keep in ([0], [1], [2], [0, 2], [0, 1, 2]):
        out = partial_trace(m, [2, 3, 2], keep=keep)
        assert abs(np.trace(out) - np.trace(m)) < 1e-11


def test_partial_trace_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        partial_trace(np.eye(5), [2, 3], keep=[0])


def test_tolerances_validation_and_overrides():
    with pytest.raises(ValidationError):
        qf.Tolerances(rank_tol=0.0)
    with pytest.raises(ValidationError, match="unknown tolerance"):
        qf.Tolerances.from_dict({"bogus": 1e-9})
    t = qf.DEFAULT_TOLS.replace(degeneracy_tol=1e-6)
    assert t.degeneracy_tol == 1e-6
    assert qf.DEFAULT_TOLS.degeneracy_tol == 1e-9
