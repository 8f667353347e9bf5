import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfluct as qf
from qfluct.errors import ValidationError
from qfluct.measurement import _grouped
from qfluct.rand import random_density_matrix, random_povm

from oracles import naimark_dilate_randomized, projectors
from random_inputs import haar_unitary, random_hermitian

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def z_basis_measurement():
    return qf.observable_from_hermitian(PAULI_Z)


def test_observable_from_hermitian_pauli_z():
    obs = qf.observable_from_hermitian(PAULI_Z)
    assert obs.values == (-1.0, 1.0)
    assert np.abs(projectors(obs)[0] - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(projectors(obs)[1] - np.diag([1.0, 0.0])).max() < 1e-12


def test_observable_from_hermitian_identity_fully_degenerate():
    obs = qf.observable_from_hermitian(np.eye(3, dtype=complex))
    assert obs.values == (1.0,)
    assert np.abs(projectors(obs)[0] - np.eye(3)).max() < 1e-12


def test_observable_scaling():
    h = np.diag([0.5, -0.25, 2.0]).astype(complex)
    base = qf.observable_from_hermitian(h)
    scaled = qf.observable_from_hermitian(3.0 * h)
    assert np.allclose(sorted(scaled.values), sorted(3.0 * v for v in base.values))
    for v, p in zip(base.values, projectors(base)):
        match = [q for w, q in zip(scaled.values, projectors(scaled)) if abs(w - 3 * v) < 1e-9]
        assert len(match) == 1
        assert np.abs(match[0] - p).max() < 1e-12


def test_extended_observable_merges_infinite_branches():
    obs = qf.ExtendedObservable.create(
        [
            (math.inf, np.diag([1.0, 0.0, 0.0]).astype(complex)),
            (0.5, np.diag([0.0, 1.0, 0.0]).astype(complex)),
            (math.inf, np.diag([0.0, 0.0, 1.0]).astype(complex)),
        ]
    )
    assert obs.values == (0.5, math.inf)
    assert round(float(np.trace(projectors(obs)[-1]).real)) == 2


def test_extended_observable_rejects_close_finite_values():
    with pytest.raises(ValidationError, match="distinct"):
        qf.ExtendedObservable.create(
            [
                (0.0, np.diag([1.0, 0.0]).astype(complex)),
                (1e-12, np.diag([0.0, 1.0]).astype(complex)),
            ]
        )


def test_extended_observable_rejects_overlapping_projectors():
    with pytest.raises(ValidationError, match="overlap"):
        qf.ExtendedObservable.create([(0.0, np.diag([1.0, 0.0]).astype(complex)), (1.0, PLUS)])
    with pytest.raises(ValidationError, match="overlap"):
        qf.ExtendedObservable.create(
            [(0.0, np.diag([1.0, 0.0]).astype(complex)), (1.0, np.eye(2, dtype=complex))]
        )


def test_extended_observable_rejects_incomplete_family():
    with pytest.raises(ValidationError, match="incomplete"):
        qf.ExtendedObservable.create(
            [
                (0.0, np.diag([1.0, 0.0, 0.0]).astype(complex)),
                (1.0, np.diag([0.0, 1.0, 0.0]).astype(complex)),
            ]
        )


E0 = np.diag([1.0, 0.0]).astype(complex)
E1 = np.diag([0.0, 1.0]).astype(complex)
C0, C1 = E0[:, :1], E1[:, 1:]


@pytest.mark.parametrize(
    "build, branches, words",
    [
        ("from_blocks", [], "needs at least one branch"),
        ("from_blocks", [(math.nan, C0), (0.0, C1)], "NaN branch value"),
        ("from_blocks", [(-math.inf, C0), (0.0, C1)], "-infinity branch values are not supported"),
        ("from_blocks", [(0.0, C0), (1.0, np.eye(3, dtype=complex)[:, :1])], "mixed dimensions"),
        ("from_blocks", [(0.0, np.eye(2, dtype=complex)), (1.0, np.zeros((2, 0)))], "branch 1 has rank 0"),
        ("create", [(0.0, np.diag([1.0, 0.0, 0.0])), (1.0, np.diag([0.0, 1.0, 0.0]))],
         "incomplete, branch ranks sum to 2 < dimension 3"),
        ("create", [(0.0, E0), (1.0, np.eye(2))], "branches overlap, branch ranks sum to 3 > dimension 2"),
        ("create", [(0.0, E0), (1.0, PLUS)], r"overlap or are not orthonormal, \|V†V - I\| = 7\.071e-01"),
        ("create", [(1e-12, E1), (0.0, E0)], "values 0.0 and 1e-12 are not distinct beyond degeneracy_tol"),
    ],
)
def test_extended_observable_rejections(build, branches, words):
    # every rejection is a ValidationError whose message keeps its words:
    # the two close values, and the |V†V - I| defect
    with pytest.raises(ValidationError, match=words):
        getattr(qf.ExtendedObservable, build)(branches)


@st.composite
def clustered_stacks(draw):
    """One to three Hermitian matrices of one size, each spectrum holding a
    near-degenerate cluster of 8 to 20 eigenvalues, with gaps below
    degeneracy_tol, and up to three eigenvalues away from it."""
    size, n_others = draw(st.integers(8, 20)), draw(st.integers(0, 3))
    matrices = []
    for _ in range(draw(st.integers(1, 3))):
        center = draw(st.floats(-5.0, 5.0))
        gaps = draw(st.lists(st.floats(0.0, 9e-10), min_size=size - 1, max_size=size - 1))
        others = draw(st.lists(st.floats(1e-3, 20.0), min_size=n_others, max_size=n_others))
        values = np.concatenate([center + np.concatenate([[0.0], np.cumsum(gaps)]), center - np.array(others)])
        u = haar_unitary(values.size, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        matrices.append((u * values) @ u.conj().T)
    return matrices


@settings(max_examples=150, deadline=None, derandomize=True)
@given(clustered_stacks())
def test_one_cluster_mean_for_every_builder(matrices):
    # observable_from_hermitian, group_eigenspaces and the batched builder
    # of prepare_instance share one grouping rule and one cluster mean, so
    # their branch values agree exactly
    decs = [qf.spectral_decompose(h) for h in matrices]
    batched = _grouped(
        np.stack([d.values for d in decs]), np.stack([d.vectors for d in decs]), qf.DEFAULT_TOLS, str
    ).objects()
    for h, dec, obs in zip(matrices, decs, batched):
        grouped = tuple(value for value, _ in qf.group_eigenspaces(dec, qf.DEFAULT_TOLS.degeneracy_tol))
        assert qf.observable_from_hermitian(h).values == grouped
        assert obs.values == grouped


def _efficacy(rho, a_i, a_f):
    """The trace route of a protocol on the identity channel, built with the
    dataclass constructor so that an initial +infinity branch reaches it."""
    return qf.efficacy(qf.TwoTimeProtocol(rho, a_i, qf.identity_channel(2), a_f))


def test_extended_observable_exponentials_refuse_to_overflow():
    zero = qf.observable_from_hermitian(np.zeros((2, 2), dtype=complex))
    big = qf.observable_from_hermitian(np.diag([0.0, 800.0]).astype(complex))
    half = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValidationError, match="800.0"):
        _efficacy(half, big, zero)
    # exp(-A_f) = diag(1, 0): e^-800 underflows to the kernel
    assert abs(_efficacy(half, zero, big) - 0.5) < 1e-12
    low = qf.observable_from_hermitian(np.diag([-800.0, 0.0]).astype(complex))
    with pytest.raises(ValidationError, match="-800.0"):
        _efficacy(half, zero, low)


def test_extended_observable_exponentials():
    obs = qf.ExtendedObservable.create(
        [(math.inf, np.diag([1.0, 0.0]).astype(complex)), (2.0, np.diag([0.0, 1.0]).astype(complex))]
    )
    zero = qf.observable_from_hermitian(np.zeros((2, 2), dtype=complex))
    one = np.diag([0.0, 1.0]).astype(complex)
    # exp(-A_f) = diag(0, e^-2), the +infinity branch its kernel
    report = qf.verify_ft(qf.TwoTimeProtocol.create(one, zero, qf.identity_channel(2), obs))
    assert report.passed
    assert abs(report.gamma - np.exp(-2.0)) < 1e-12
    assert abs(report.lhs - np.exp(-2.0)) < 1e-12
    with pytest.raises(ValidationError, match="unbounded"):
        _efficacy(one, obs, zero)


def test_measurement_channel_commuting_fixpoint():
    rng = np.random.default_rng(1)
    for _ in range(5):
        h = random_hermitian(3, rng)
        obs = qf.observable_from_hermitian(h)
        # a state diagonal in the same eigenbasis commutes with every projector
        w = rng.dirichlet(np.ones(3))
        dec = qf.spectral_decompose(h)
        rho = (dec.vectors * w) @ dec.vectors.conj().T
        out = qf.measurement_channel(rho, obs)
        assert np.abs(out - rho).max() < 1e-12


def test_measurement_channel_dephases_plus_state():
    out = qf.measurement_channel(PLUS, z_basis_measurement())
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12
    with pytest.raises(ValidationError, match="mismatch"):
        qf.measurement_channel(np.eye(3, dtype=complex) / 3, z_basis_measurement())


def test_measurement_channel_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = random_density_matrix(3, rng)
        obs = qf.observable_from_hermitian(random_hermitian(3, rng))
        once = qf.measurement_channel(rho, obs)
        twice = qf.measurement_channel(once, obs)
        assert np.abs(once - twice).max() < 1e-12


def test_povm_validation():
    with pytest.raises(ValidationError, match="completeness"):
        qf.POVM.create([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 0.5]).astype(complex)])
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        qf.POVM.create([np.diag([1.5, 1.0]).astype(complex), np.diag([-0.5, 0.0]).astype(complex)])


def test_povm_probabilities_trivial_and_mixed():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(2, rng)
    single = qf.POVM.create([np.eye(2, dtype=complex)])
    assert np.allclose(qf.povm_probabilities(rho, single), [1.0])
    povm = random_povm(2, 3, rng)
    probs = qf.povm_probabilities(np.eye(2, dtype=complex) / 2, povm)
    expected = [float(np.trace(m).real) / 2 for m in povm.elements]
    assert np.abs(probs - expected).max() < 1e-12


def test_naimark_dilate_trivial_povm():
    povm = qf.POVM.create([np.eye(2, dtype=complex) / 2] * 2)
    dil = qf.naimark_dilate(povm)
    assert dil.probe_dim == 2
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        probs = qf.dilation_probabilities(rho, dil)
        assert np.abs(probs - 0.5).max() < 1e-10


def test_naimark_dilate_projective_povm_matches_direct_measurement():
    projectors = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    povm = qf.POVM.create(projectors)
    dil = qf.naimark_dilate(povm)
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        direct = qf.povm_probabilities(rho, povm)
        assert np.abs(qf.dilation_probabilities(rho, dil) - direct).max() < 1e-10


def test_naimark_dilate_random_povm_contract():
    rng = np.random.default_rng(6)
    povm = random_povm(2, 3, rng)
    dil = qf.naimark_dilate(povm)
    for k in range(3):
        assert np.abs(dil.povm_element(k) - povm.elements[k]).max() < 1e-10
    for _ in range(20):
        rho = random_density_matrix(2, rng)
        direct = qf.povm_probabilities(rho, povm)
        dilated = qf.dilation_probabilities(rho, dil)
        assert np.abs(direct - dilated).max() < 1e-10


def test_dilation_probabilities_rejects_dimension_mismatch():
    dil = qf.naimark_dilate(random_povm(2, 3, np.random.default_rng(9)))
    with pytest.raises(ValidationError, match="mismatch"):
        qf.dilation_probabilities(np.eye(3, dtype=complex) / 3, dil)


def test_naimark_dilation_projector_family():
    rng = np.random.default_rng(7)
    for d, k in [(2, 2), (3, 4), (4, 5)]:
        dil = qf.naimark_dilate(random_povm(d, k, rng))
        total = sum(projectors(dil))
        assert np.abs(total - np.eye(d * k)).max() < 1e-10
        for a in range(k):
            pa = projectors(dil)[a]
            assert np.abs(pa @ pa - pa).max() < 1e-10
            for b in range(a + 1, k):
                assert np.abs(pa @ projectors(dil)[b]).max() < 1e-10


def test_naimark_dilate_randomized_same_contract_different_unitary():
    rng = np.random.default_rng(8)
    povm = random_povm(2, 3, rng)
    canonical = qf.naimark_dilate(povm)
    randomized = naimark_dilate_randomized(povm, np.random.default_rng(99))
    for k in range(3):
        assert np.abs(randomized.povm_element(k) - povm.elements[k]).max() < 1e-10
    assert np.abs(canonical.vectors - randomized.vectors).max() > 1e-3
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        assert (
            np.abs(
                qf.dilation_probabilities(rho, randomized) - qf.povm_probabilities(rho, povm)
            ).max()
            < 1e-10
        )

