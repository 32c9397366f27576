"""Shared random-matrix builders for the test suite.

All randomness flows through explicit numpy generators with fixed seeds so
every run sees the same matrices.  The builders are the ones the `verify`
suites draw from; only random_contraction is test-only.
"""

import inspect

import numpy as np
import pytest

from semilab.cli import _random_accretive as random_accretive
from semilab.cli import _random_dissipative as random_dissipative
from semilab.cli import _random_dissipative_ext as random_dissipative_ext
from semilab.cli import _random_matrix as random_matrix


def random_contraction(rng, n, margin=0.05):
    m = random_matrix(rng, n)
    norm = np.linalg.norm(m, 2)
    return m * ((1.0 - margin) / norm)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def svd_calls(monkeypatch):
    """Keyword arguments of every dense SVD made while the test runs.

    Counts direct ``np.linalg.svd`` calls and the SVDs that
    ``np.linalg.norm(., 2)`` runs through numpy's own module global.
    """
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", counted)
    return calls


@pytest.fixture
def step_out_dtypes(monkeypatch):
    """Dtype of the ``out`` buffer of every ``np.matmul(..., out=...)`` call.

    In the package only the simulate step loop writes matmul products
    into a buffer, so this records the dtype the steps run in.
    """
    dtypes = []
    matmul = np.matmul

    def spied(*args, **kwargs):
        if kwargs.get("out") is not None:
            dtypes.append(kwargs["out"].dtype)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spied)
    return dtypes
