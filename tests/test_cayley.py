import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab.cayley import (
    AccretiveOperator,
    ContractionOperator,
    accretive_of_contraction,
    accretivity_lower_bound,
    cayley_of_accretive,
    s_norm_bound,
    strict_contraction_bound,
)
from semilab import numkernel
from semilab.numkernel import op_norm

from conftest import random_accretive, random_contraction


class TestWrappers:
    def test_accretive_records_delta(self):
        s = AccretiveOperator(np.diag([1.0, 3.0]))
        assert s.delta == pytest.approx(1.0)

    def test_accretive_rejects_negative_part(self):
        with pytest.raises(ValueError, match="matrix is not accretive"):
            AccretiveOperator(np.array([[-1.0]]))

    def test_accretive_accepts_roundoff_negative_part(self):
        assert AccretiveOperator(np.array([[-1e-13]])).delta == 0.0

    def test_accretive_matrix_needs_no_norm(self, rng, svd_calls):
        AccretiveOperator(random_accretive(rng, 6, floor=0.05))
        AccretiveOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert svd_calls == []

    def test_accretive_coerces_once(self, rng, monkeypatch):
        calls = []
        coerce = numkernel.as_complex_matrix

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return coerce(*args, **kwargs)

        monkeypatch.setattr(numkernel, "as_complex_matrix", counted)
        AccretiveOperator(random_accretive(rng, 6, floor=0.05))
        assert calls == [("accretive operator",)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix, prefix", [
        (np.diag([1e308, 1.0]), ""),
        (np.array([[1.0, 1e308], [1e308, 1.0]]), ""),
        (np.stack([np.eye(2), np.diag([1e308, 1.0])]), "stack member 1: "),
    ], ids=["diagonal", "dense", "stack"])
    def test_accretive_refuses_an_overflowing_hermitian_part(self, matrix,
                                                              prefix):
        with pytest.raises(ValueError, match="^%saccretive operator has a "
                           "non-finite Hermitian part$" % prefix):
            AccretiveOperator(matrix)

    @pytest.mark.parametrize("build", [AccretiveOperator,
                                       cayley_of_accretive])
    def test_empty_accretive_operator_refused(self, build):
        with pytest.raises(ValueError, match=r"^accretive operator is empty, "
                           r"got shape \(0, 0\)$"):
            build(np.zeros((0, 0)))

    @pytest.mark.parametrize("build", [ContractionOperator,
                                       accretive_of_contraction,
                                       accretivity_lower_bound, s_norm_bound])
    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_contraction_operator_refused(self, build, shape):
        with pytest.raises(ValueError, match=r"^contraction operator is "
                           r"empty, got shape %s$" % re.escape(str(shape))):
            build(np.zeros(shape))

    def test_skew_is_accretive_with_zero_delta(self):
        s = AccretiveOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert s.delta == 0.0

    def test_contraction_records_norm(self):
        k = ContractionOperator(np.diag([0.5, 0.25]))
        assert k.norm == pytest.approx(0.5)

    def test_contraction_rejects_expansion(self):
        with pytest.raises(ValueError):
            ContractionOperator(np.array([[1.5]]))

    def test_unit_norm_allowed(self):
        assert ContractionOperator(np.eye(3)).norm == pytest.approx(1.0)


class TestCayleyTransform:
    def test_scalar_values(self):
        # s = 1 -> k = 0, s = 3 -> k = 1/2
        assert cayley_of_accretive(AccretiveOperator(np.array([[1.0]]))).matrix[0, 0] == pytest.approx(0.0)
        assert cayley_of_accretive(AccretiveOperator(np.array([[3.0]]))).matrix[0, 0] == pytest.approx(0.5)

    def test_imaginary_scalar(self):
        # s = i -> k = (i-1)/(i+1) = i
        k = cayley_of_accretive(AccretiveOperator(np.array([[1j]])))
        assert abs(k.matrix[0, 0] - 1j) <= 1e-14

    def test_zero_contraction_maps_to_identity(self):
        s = accretive_of_contraction(ContractionOperator(np.zeros((3, 3))))
        assert np.allclose(s.matrix, np.eye(3))

    def test_roundtrip_both_ways(self, rng):
        for n in (1, 2, 5, 9):
            s = AccretiveOperator(random_accretive(rng, n, floor=0.05))
            s2 = accretive_of_contraction(cayley_of_accretive(s))
            assert op_norm(s2.matrix - s.matrix) <= 1e-9 * (1 + op_norm(s.matrix))
            k = ContractionOperator(random_contraction(rng, n))
            k2 = cayley_of_accretive(accretive_of_contraction(k))
            assert op_norm(k2.matrix - k.matrix) <= 1e-9

    def test_inverse_fails_at_unit_singular_vector(self):
        # I - K singular: the reconstructed operator would be unbounded
        with pytest.raises(ValueError):
            accretive_of_contraction(ContractionOperator(np.eye(2)))

    @given(st.integers(min_value=1, max_value=7),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cayley_is_contraction(self, n, seed):
        rng = np.random.default_rng(seed)
        s = AccretiveOperator(random_accretive(rng, n, floor=1e-3))
        k = cayley_of_accretive(s)
        assert k.norm <= 1.0 + 1e-12


class TestBounds:
    def test_strict_bound_dominates_norm(self, rng):
        for n in (1, 3, 6):
            s = AccretiveOperator(random_accretive(rng, n, floor=0.2))
            k = cayley_of_accretive(s)
            assert k.norm <= strict_contraction_bound(s) + 1e-10

    def test_strict_bound_requires_positive_delta(self):
        skew = AccretiveOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            strict_contraction_bound(skew)

    def test_scalar_bound_value(self):
        # s = 1: delta = 1, |s+1| = 2 -> bound sqrt(1 - 4/4) = 0
        s = AccretiveOperator(np.array([[1.0]]))
        assert strict_contraction_bound(s) == pytest.approx(0.0, abs=1e-7)

    def test_accretivity_lower_bound(self, rng):
        for n in (1, 2, 5):
            k = ContractionOperator(random_contraction(rng, n))
            s = accretive_of_contraction(k)
            assert s.delta >= accretivity_lower_bound(k) - 1e-10

    def test_accretivity_lower_bound_scalar(self):
        # k = 1/2: (1 - 1/4) / (1/2)^2 = 3
        k = ContractionOperator(np.array([[0.5]]))
        assert accretivity_lower_bound(k) == pytest.approx(3.0)

    def test_s_norm_bound(self, rng):
        for n in (1, 2, 5):
            k = ContractionOperator(random_contraction(rng, n))
            s = accretive_of_contraction(k)
            assert op_norm(s.matrix) <= s_norm_bound(k) + 1e-10

    def test_s_norm_bound_rejects_unit_norm(self):
        with pytest.raises(ValueError):
            s_norm_bound(ContractionOperator(np.eye(2)))

    def test_s_norm_bound_scalar(self):
        # (1 + 1/2) / (1 - 1/2) = 3
        k = ContractionOperator(np.array([[0.5]]))
        assert s_norm_bound(k) == pytest.approx(3.0)
