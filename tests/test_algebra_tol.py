"""Every accept/reject check of an input or a decomposition reads the one
threshold operator_core.ALGEBRA_TOL = 1e-10: a defect of 2e-10 is
rejected and one of 5e-11 is accepted, at scale 1, by each check that the
public API reaches, and the number is written once in the package."""

import ast
import io
import math
import tokenize
from pathlib import Path

import numpy as np
import pytest

import qfluct as qf
from qfluct.errors import ValidationError
from qfluct.operator_core import ALGEBRA_TOL

SRC = Path(__file__).resolve().parents[1] / "src" / "qfluct"


def diag(*values):
    return np.diag(values).astype(complex)


CHECKS = {
    "hermiticity": (
        "not Hermitian",
        lambda eps: qf.spectral_decompose(np.array([[1.0, eps], [0.0, 0.5]], dtype=complex)),
    ),
    "state_psd": ("negative eigenvalue", lambda eps: qf.Ensemble.create([1.0], [diag(1.0 + eps, -eps)])),
    "state_trace": ("trace", lambda eps: qf.Ensemble.create([1.0], [diag(0.5 + eps, 0.5)])),
    "povm_completeness": (
        "POVM completeness",
        lambda eps: qf.POVM.create([diag(1.0 + eps, 0.0), diag(0.0, 1.0)]),
    ),
    "kraus_completeness": (
        "Kraus completeness",
        lambda eps: qf.KrausChannel.create([diag(math.sqrt(1.0 + eps), 1.0)]),
    ),
    "projector": (
        "not an orthogonal projector",
        lambda eps: qf.ExtendedObservable.create([(0.0, diag(1.0, eps)), (1.0, diag(0.0, 1.0))]),
    ),
    "support_psd": ("requires a PSD operator", lambda eps: qf.support_projector(diag(1.0, -eps))),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_each_check_holds_its_threshold_at_1e_10(name):
    match, build = CHECKS[name]
    assert ALGEBRA_TOL == 1e-10
    build(5e-11)
    with pytest.raises(ValidationError, match=match):
        build(2e-10)


def test_the_algebra_threshold_is_written_once():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NUMBER and ast.literal_eval(tok.string) == 1e-10:
                sites.append((path.name, tok.line.strip()))
    assert sites == [("operator_core.py", "ALGEBRA_TOL = 1e-10")]
