"""Shared random-matrix builders for the test suite.

All randomness flows through explicit numpy generators with fixed seeds so
every run sees the same matrices.  Each builder draws one matrix with the
`verify` suites' draw and shifts it with their (stack-taking) shift, so a
case built here is the case a suite draws from the same generator state;
only random_contraction is test-only.
"""

import inspect
import sys

import numpy as np
import pytest

from semilab import simkit
from semilab.cli import _accretive, _dissipative, _dissipative_ext
from semilab.cli import _random_matrix as random_matrix


def random_accretive(rng, n, floor):
    return _accretive(random_matrix(rng, n), floor)


def random_dissipative(rng, n, gap=0.1):
    return _dissipative(random_matrix(rng, n), gap)


def random_dissipative_ext(rng, n1, n2, gap=0.1):
    return _dissipative_ext(random_matrix(rng, n1 + n2), n1, gap)


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
def banded_results(monkeypatch):
    """Whether each ``simkit._banded_inverse`` call of the test returned
    an inverse, in call order: True where cn_step took the banded step."""
    results = []
    banded = simkit._banded_inverse

    def recorded(f, order=None):
        inverse = banded(f, order)
        results.append(inverse is not None)
        return inverse

    monkeypatch.setattr(simkit, "_banded_inverse", recorded)
    return results


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


@pytest.fixture
def lapack_calls(monkeypatch):
    """Names of the ``eigvalsh`` and ``cholesky`` calls made in the test."""
    calls = []
    for name in ("eigvalsh", "cholesky"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def dense_only(monkeypatch):
    """Call it to send every later call down the dense path.

    The package's one diagonality decision, ``_exact_diagonal``, then
    finds no diagonal, in every module that holds a binding of it.
    """
    def disable():
        for name, module in list(sys.modules.items()):
            if name.startswith("semilab") and \
                    hasattr(module, "_exact_diagonal"):
                monkeypatch.setattr(module, "_exact_diagonal",
                                    lambda m: None)
    return disable
