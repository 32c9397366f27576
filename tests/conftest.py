"""Shared random-matrix builders for the test suite.

All randomness flows through explicit numpy generators with fixed seeds so
every run sees the same matrices.
"""

import inspect

import numpy as np
import pytest

from semilab.numkernel import dissipativity_margin
from semilab.sysnode import ExtendedOperator


def random_matrix(rng, n, scale=1.0):
    real = rng.standard_normal((n, n))
    imag = rng.standard_normal((n, n))
    return scale * (real + 1j * imag) / np.sqrt(2.0 * n)


def random_accretive(rng, n, floor=0.05):
    """Random matrix shifted so its Hermitian part has min eigenvalue = floor."""
    m = random_matrix(rng, n)
    herm = (m + m.conj().T) / 2.0
    shift = floor - np.linalg.eigvalsh(herm).min()
    return m + shift * np.eye(n)


def random_dissipative(rng, n, gap=0.1):
    """Random matrix shifted to dissipativity margin exactly -gap."""
    m = random_matrix(rng, n)
    return m - (dissipativity_margin(m) + gap) * np.eye(n)


def random_dissipative_ext(rng, n1, n2, gap=0.1):
    m = random_dissipative(rng, n1 + n2, gap)
    return ExtendedOperator(m[:n1, :n1], m[:n1, n1:],
                            m[n1:, :n1], m[n1:, n1:])


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
