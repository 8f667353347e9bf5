"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

import qfluct as qf
import qfluct.cli as cli
from qfluct.rand import complex_gaussian, random_density_matrix, random_povm, random_pure_state

from oracles import enumeration_oracle, projectors, regularized_exp
from random_inputs import haar_unitary, random_observable


def _line(n, name, ok):
    print(f"\nACCEPTANCE {n:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_two_time_protocol(seed):
    rng = np.random.default_rng(seed)
    d = 2 + seed % 5  # dimensions 2..6
    rho = random_pure_state(d, rng) if seed % 3 == 0 else random_density_matrix(d, rng)
    a_i = qf.observable_from_hermitian(random_observable(d, rng, degenerate=seed % 2 == 0))
    a_f = qf.observable_from_hermitian(random_observable(d, rng, degenerate=seed % 7 == 1))
    kind = seed % 4
    if kind == 0:
        channel = qf.KrausChannel.create([haar_unitary(d, rng)])
    elif kind == 1:
        channel = qf.depolarizing_channel(float(rng.uniform(0, 1)), d)
    elif kind == 2:
        channel = qf.dephasing_channel(float(rng.uniform(0, 1)), d)
    else:
        channel = qf.amplitude_damping_channel(float(rng.uniform(0, 1)), d)
    return qf.TwoTimeProtocol.create(rho, a_i, channel, a_f)


@pytest.fixture(scope="module")
def ft_reports():
    start = time.time()
    reports = [qf.verify_ft(_random_two_time_protocol(seed)) for seed in range(200)]
    return reports, time.time() - start


@pytest.fixture(scope="module")
def holevo_batch():
    start = time.time()
    rows = []
    for trial in range(200):
        d = 1 + trial % 3           # 1..3
        j = 1 + (trial // 2) % 3    # 1..3
        k = 1 + trial % 4           # 1..4
        kind = ("mixed", "pure", "rank_deficient", "mix")[trial % 4]
        if d == 1:
            kind = "mixed"
        inst = qf.random_instance(d, j, k, seed=5000 + trial, state_kind=kind)
        rows.append(qf.analyze(inst, strict=False))
    return rows, time.time() - start


def test_criterion_1_fluctuation_identity(ft_reports):
    reports, elapsed = ft_reports
    worst = max(r.identity_error for r in reports)
    ok = len(reports) >= 200 and worst <= 1e-9 and elapsed < 10.0
    print(f"\n  200 protocols, worst relative identity error {worst:.2e}, {elapsed:.1f}s")
    _line(1, "fluctuation-theorem identity", ok)


def test_criterion_2_jensen_bound(ft_reports):
    reports, _ = ft_reports
    worst = min(r.jensen_slack for r in reports)
    _line(2, "Jensen bound", worst >= -1e-8)


def test_criterion_3_jarzynski_special_case():
    sz = np.diag([1.0, -1.0]).astype(complex)
    _, quench = qf.jarzynski_scenario(
        sz, qf.EvolutionProtocol.create([(2 * sz, 0.0)]), beta=1.0
    )
    expected = math.cosh(2) / math.cosh(1)
    ok = (
        abs(quench.exp_neg_beta_work - expected) <= 1e-8
        and abs(quench.z_ratio - expected) <= 1e-12
        and quench.max_work_slack >= -1e-8
    )
    rng = np.random.default_rng(0)
    for trial in range(5):
        h = random_observable(2 + trial % 3, rng)
        _, const = qf.jarzynski_scenario(
            h, qf.EvolutionProtocol.create([(h, float(rng.uniform(0, 3)))]), beta=0.5 + trial
        )
        ok = ok and abs(const.exp_neg_beta_work - 1.0) <= 1e-10
    _line(3, "Jarzynski special case", ok)


def test_criterion_4_sharpened_holevo_bound(holevo_batch):
    rows, elapsed = holevo_batch
    ok = len(rows) >= 200 and elapsed < 60.0
    for r in rows:
        ok = ok and r.bound_slack >= -1e-8 and r.neg_log_gamma >= -1e-8 and r.gamma <= 1 + 1e-9
    print(f"\n  200 instances, {elapsed:.1f}s")
    _line(4, "sharpened Holevo bound", ok)


def test_criterion_5_mean_identity(holevo_batch):
    rows, _ = holevo_batch
    worst = max(abs(r.mean_delta_a - (r.chi - r.mutual_information)) for r in rows)
    print(f"\n  worst mean-identity defect {worst:.2e}")
    _line(5, "mean identity", worst <= 1e-8)


def test_criterion_6_golden_thompson_chain(holevo_batch):
    rows, _ = holevo_batch
    ok = all(
        r.gamma <= r.chain.g1 + 1e-8
        and r.chain.g1 <= r.chain.g2 + 1e-8
        and abs(r.chain.g2 - 1.0) <= 1e-9
        for r in rows
    )
    _line(6, "Golden-Thompson chain", ok)


PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0, -1.0]).astype(complex),
)
# Bloch vectors: the qubit SIC (a tetrahedron with one vertex on +z) and the
# trine (three vectors 120 degrees apart in the x-z plane)
SIC = [(0.0, 0.0, 1.0)] + [
    (math.sqrt(8) / 3 * math.cos(2 * math.pi * k / 3), math.sqrt(8) / 3 * math.sin(2 * math.pi * k / 3), -1 / 3)
    for k in range(3)
]
TRINE = [(math.sin(2 * math.pi * k / 3), 0.0, math.cos(2 * math.pi * k / 3)) for k in range(3)]


def _uniform_pure_qubit_instance(bloch, povm=None):
    """Uniform priors on the pure qubit states of the Bloch vectors,
    measured with povm or, by default, with M_i = (d/k) rho_i."""
    states = [(np.eye(2) + sum(c * p for c, p in zip(n, PAULIS))) / 2 for n in bloch]
    k = len(states)
    return qf.CqChannelInstance.create(
        qf.Ensemble.create([1 / k] * k, states), povm or qf.POVM.create([2 / k * rho for rho in states])
    )


def test_criterion_7_equality_conditions(holevo_batch):
    # forward: constructed equality instances; the SIC and the trine
    # saturate at gamma < 1, pinned to its closed form
    eye = np.eye(2, dtype=complex)
    z_povm = qf.POVM.create([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
    orthogonal = qf.CqChannelInstance.create(
        qf.Ensemble.create([0.5, 0.5], [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]),
        z_povm,
    )
    rng = np.random.default_rng(1)
    rho = random_density_matrix(2, rng)
    identical = qf.CqChannelInstance.create(
        qf.Ensemble.create([0.4, 0.6], [rho, rho.copy()]), random_povm(2, 3, rng)
    )
    ok = True
    for inst, gamma in (
        (orthogonal, 1.0),
        (identical, 1.0),
        (_uniform_pure_qubit_instance(SIC), 3 ** -0.5),
        (_uniform_pure_qubit_instance(TRINE), 2 ** (-2 / 3)),
    ):
        rep = qf.analyze(inst, strict=False)
        ok = ok and rep.equality_residual <= 1e-8 and abs(rep.bound_slack) <= 1e-8
        ok = ok and abs(rep.gamma - gamma) <= 1e-12
    # backward: random instances far from equality have a visible residual,
    # and so does the SIC measured in Z
    rows, _ = holevo_batch
    sic_in_z = qf.analyze(_uniform_pure_qubit_instance(SIC, z_povm), strict=False)
    loose = [r for r in rows if r.bound_slack > 1e-4]
    ok = ok and sic_in_z.bound_slack > 1e-4 and sic_in_z.equality_residual > 1e-6
    ok = ok and len(loose) > 20 and all(r.equality_residual > 1e-6 for r in loose)
    print(f"\n  {len(loose)} instances with slack > 1e-4; min residual "
          f"{min(r.equality_residual for r in loose):.2e}")
    _line(7, "equality conditions", ok)


def test_criterion_8_naimark_dilation():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(50):
        d = 2 + trial % 3
        k = 2 + trial % 4
        povm = random_povm(d, k, rng)
        dil = qf.naimark_dilate(povm)
        for _ in range(20):
            state = random_density_matrix(d, rng)
            direct = qf.povm_probabilities(state, povm)
            dilated = qf.dilation_probabilities(state, dil)
            worst = max(worst, float(np.abs(direct - dilated).max()))
    print(f"\n  50 POVMs x 20 states, worst statistics gap {worst:.2e}")
    _line(8, "Naimark dilation statistics", worst <= 1e-10)


def test_criterion_9_singular_exponential():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(50):
        d = 2 + trial % 5  # dimensions 2..6
        g = complex_gaussian(rng, (d, d))
        f = (g + g.conj().T) / 2
        f /= max(1.0, np.abs(f).max())
        rank = 1 + trial % (d - 1) if d > 2 else 1
        q, _ = np.linalg.qr(complex_gaussian(rng, (d, rank)))
        n = q @ q.conj().T
        out = qf.compressed_exp(f, n)
        oracle = regularized_exp(f, n, eps=1e-8)
        worst = max(worst, float(np.abs(out - oracle).max()))
    print(f"\n  50 pairs, worst gap to the eps-regularized oracle {worst:.2e}")
    _line(9, "singular-exponential correctness", worst <= 1e-6)


def test_criterion_10_worked_example_regression():
    ket_plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    ensemble = qf.Ensemble.create(
        [0.5, 0.5],
        [np.diag([1.0, 0.0]).astype(complex), np.outer(ket_plus, ket_plus.conj())],
    )
    povm = qf.POVM.create([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
    inst = qf.CqChannelInstance.create(ensemble, povm)
    rep = qf.analyze(inst)
    i_closed = 0.5 * math.log(4 / 3) + 0.25 * math.log(2 / 3) + 0.25 * math.log(2)
    x = (1 + 1 / math.sqrt(2)) / 2
    chi_closed = -x * math.log(x) - (1 - x) * math.log(1 - x)
    dil = qf.naimark_dilate(povm)
    oracle = enumeration_oracle(ensemble.priors, ensemble.states, povm.elements, projectors(dil))
    ok = (
        abs(rep.mutual_information - i_closed) <= 1e-10
        and abs(rep.chi - chi_closed) <= 1e-10
        and abs(rep.gamma - oracle["gamma"]) <= 1e-8
    )
    print(f"\n  I gap {abs(rep.mutual_information - i_closed):.2e}, "
          f"chi gap {abs(rep.chi - chi_closed):.2e}, "
          f"gamma vs oracle {abs(rep.gamma - oracle['gamma']):.2e}")
    _line(10, "worked example regression", ok)


def test_criterion_11_cli_determinism(tmp_path):
    args = ["holevo", "random", "--dim", "2", "--words", "2", "--outcomes", "3",
            "--trials", "25", "--seed", "42"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli.main(args + ["--csv", str(a)])
    code_b = cli.main(args + ["--csv", str(b)])
    ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    _line(11, "CLI determinism", ok)
