import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab.feedback import check_admissible, internal_loop
from semilab.numkernel import (
    ContractionReport,
    Gram,
    SvdFactor,
    as_complex_matrix,
    contraction_certificate,
    dissipativity_margin,
    expm,
    herm_part,
    op_norm,
    svd_solve,
)
from semilab.simkit import _LEDGER_BLOCK
from semilab.sysnode import external_cayley

from conftest import (
    random_contraction,
    random_dissipative,
    random_dissipative_ext,
    random_matrix,
)


class TestBasics:
    @pytest.mark.parametrize("dtype, expected", [
        (np.float64, np.float64),
        (np.int64, np.float64),
        (np.bool_, np.float64),
        (np.float32, np.float64),
        (np.complex64, np.complex128),
        (np.complex128, np.complex128),
    ])
    def test_as_complex_matrix_dtype_rule(self, dtype, expected):
        # real data stays real; only complex input gives complex128
        a = np.ones((2, 3), dtype=dtype)
        m = as_complex_matrix(a, "a")
        assert m.shape == (2, 3) and m.dtype == expected
        assert (m == 1).all()
        if dtype in (np.float64, np.complex128):
            assert m is a
        scalar = as_complex_matrix(dtype(1), "a")
        assert scalar.shape == (1, 1) and scalar.dtype == expected

    def test_as_complex_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.inf]]), "a")

    def test_herm_part_is_hermitian(self, rng):
        m = random_matrix(rng, 6)
        h = herm_part(m)
        assert np.allclose(h, h.conj().T)
        assert np.allclose(herm_part(m - h), 0.0)

    def test_op_norm_matches_numpy(self, rng):
        m = random_matrix(rng, 9)
        assert op_norm(m) == pytest.approx(np.linalg.norm(m, 2))

    def test_svd_solve_rejects_singular(self):
        with pytest.raises(ValueError, match=r"w is singular .*cond=inf"):
            svd_solve(np.zeros((2, 2)), np.eye(2), "w")

    def test_svd_solve_matches_direct(self, rng):
        a = random_matrix(rng, 5) + 2 * np.eye(5)
        b = random_matrix(rng, 5)
        x, cond = svd_solve(a, b, "a")
        assert np.allclose(a @ x, b, atol=1e-12)
        assert cond >= 1.0

    @pytest.mark.parametrize("n", [1, 8, 127, 255])
    def test_svd_solve_agrees_with_svd_factor_oracle(self, rng, n):
        # the Crank-Nicolson pair I -+ (dt/2) A of a random dissipative A
        a = random_dissipative(rng, n)
        ident = np.eye(n)
        for dt in (1e-3, 0.1, 10.0, 1e3):
            lhs, rhs = ident - (dt / 2) * a, ident + (dt / 2) * a
            x, cond = svd_solve(lhs, rhs, "I - (dt/2) A")
            oracle = SvdFactor(lhs)
            ref = oracle.solve(rhs)
            assert op_norm(x - ref) <= 1e-12 * op_norm(ref)
            assert cond == pytest.approx(oracle.cond, rel=1e-12)


class TestSvdFactor:
    def test_solves_match_numpy(self, rng):
        a = random_matrix(rng, 6) + 2 * np.eye(6)
        b = random_matrix(rng, 6)[:, :4]
        factor = SvdFactor(a, "a")
        assert not factor.singular
        assert np.allclose(factor.solve(b), np.linalg.solve(a, b), atol=1e-12)
        assert np.allclose(factor.rsolve(b.T),
                           np.linalg.solve(a.T, b).T, atol=1e-12)

    @pytest.mark.parametrize("method", ["solve", "rsolve"])
    def test_singular_solve_names_matrix(self, method):
        factor = SvdFactor(np.zeros((2, 2)), "I - Q")
        assert factor.singular and factor.cond == np.inf
        with pytest.raises(ValueError, match="I - Q is singular"):
            getattr(factor, method)(np.eye(2))

    def test_unit_anchor_flags_uniformly_tiny_factor(self):
        tiny = 1e-13 * np.eye(1)
        assert SvdFactor(tiny).cond == pytest.approx(1.0)
        assert not SvdFactor(tiny).singular
        anchored = SvdFactor(tiny, unit_anchor=True)
        assert anchored.cond == pytest.approx(1e13)
        assert anchored.singular

    def test_empty_matrix_is_singular(self):
        assert SvdFactor(np.zeros((0, 0))).cond == np.inf
        assert SvdFactor(np.zeros((0, 0)), unit_anchor=True).singular

    def test_one_svd_per_construction(self, rng, svd_calls):
        ext = random_dissipative_ext(rng, 3, 2)
        assert ext.a22.any()
        node = external_cayley(ext)
        k = random_contraction(rng, 2, margin=0.2)
        s = np.eye(2) + random_matrix(rng, 2) / 4
        for construct in (lambda: external_cayley(ext),
                          lambda: check_admissible(node, k),
                          lambda: internal_loop(ext, s)):
            del svd_calls[:]
            construct()
            assert len(svd_calls) == 1


class TestGram:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            Gram(np.diag([1.0, -1.0]))

    def test_rejects_nonhermitian(self, rng):
        with pytest.raises(ValueError, match="gram matrix is not Hermitian"):
            Gram(random_matrix(rng, 4) + 3 * np.eye(4))

    def test_accepts_roundoff_skew(self):
        h = np.array([[2.0, 1.0 + 1e-15], [1.0, 2.0]])
        assert np.allclose(Gram(h).matrix, [[2.0, 1.0], [1.0, 2.0]])

    def test_hermitian_matrix_needs_no_norm(self, rng, svd_calls):
        Gram(herm_part(random_matrix(rng, 6)) + 3 * np.eye(6))
        Gram(np.diag([1.0, 4.0, 0.25]))
        assert svd_calls == []

    def test_weighted_norm_identity_gram(self, rng):
        g = Gram(np.eye(7))
        m = random_matrix(rng, 7)
        assert g.weighted_norm_of_operator(m) == pytest.approx(op_norm(m))

    def test_weighted_norm_via_similarity(self, rng):
        h = np.diag([1.0, 4.0, 0.25, 9.0])
        g = Gram(h)
        m = random_matrix(rng, 4)
        root = np.diag(np.sqrt(np.diag(h)))
        ref = op_norm(root @ m @ np.linalg.inv(root))
        assert g.weighted_norm_of_operator(m) == pytest.approx(ref)

    def test_weighted_vector_norm(self):
        g = Gram(np.diag([4.0, 1.0]))
        assert g.weighted_vector_norm(np.array([1.0, 0.0])) == pytest.approx(2.0)

    @pytest.mark.parametrize("nrows", [1, _LEDGER_BLOCK - 1, _LEDGER_BLOCK,
                                       _LEDGER_BLOCK + 1])
    @pytest.mark.parametrize("complex_rows", [False, True])
    def test_squared_norms_match_per_row_oracle(self, rng, nrows,
                                                complex_rows):
        m = random_matrix(rng, 5)
        h = m @ m.conj().T + 0.5 * np.eye(5)
        assert np.count_nonzero(h - np.diag(np.diag(h))) and h.imag.any()
        g = Gram(h)
        rows = rng.standard_normal((nrows, 5))
        if complex_rows:
            rows = rows + 1j * rng.standard_normal((nrows, 5))
        got = g.squared_norms(rows)
        assert got.shape == (nrows,) and got.dtype == np.float64
        by_row = np.array([g.weighted_vector_norm(x) ** 2 for x in rows])
        # independent of squared_norms: x^* (H x), one vector at a time
        direct = np.array([(x.conj() @ (g.matrix @ x)).real for x in rows])
        for oracle in (by_row, direct):
            assert (np.abs(got - oracle) <= 1e-13 * oracle).all()


class TestDissipativityMargin:
    def test_zero_matrix(self):
        assert dissipativity_margin(np.zeros((3, 3))) == pytest.approx(0.0)

    def test_skew_hermitian_margin_zero(self, rng):
        m = random_matrix(rng, 6)
        skew = (m - m.conj().T) / 2.0
        assert abs(dissipativity_margin(skew)) <= 1e-12

    def test_diagonal_example(self):
        a = np.diag([-1.0, -3.0])
        assert dissipativity_margin(a) == pytest.approx(-1.0)

    def test_weighted_margin_reduces_to_plain(self, rng):
        a = random_matrix(rng, 5)
        g = Gram(np.eye(5))
        assert dissipativity_margin(a, g) == pytest.approx(dissipativity_margin(a))

    def test_weighted_margin_matches_congruence(self, rng):
        a = random_matrix(rng, 6)
        h = np.diag(np.linspace(0.5, 3.0, 6))
        g = Gram(h)
        # margin in H equals max eigenvalue of L^-1 herm(HA) L^-* for H = LL*
        l = np.linalg.cholesky(h)
        w = herm_part(h @ a)
        ref = np.linalg.eigvalsh(
            np.linalg.solve(l, np.linalg.solve(l, w.conj().T).conj().T)).max()
        assert dissipativity_margin(a, g) == pytest.approx(ref)

    def test_shift_moves_margin(self, rng):
        a = random_matrix(rng, 4)
        m0 = dissipativity_margin(a)
        assert dissipativity_margin(a - 2.0 * np.eye(4)) == pytest.approx(m0 - 2.0)


class TestExpm:
    def test_matches_scipy(self, rng):
        worst = 0.0
        for n in (1, 2, 5, 12, 20):
            a = 3.0 * random_matrix(rng, n)
            for t in (0.05, 1.0, 7.0):
                ref = scipy.linalg.expm(a * t)
                err = op_norm(expm(a, t) - ref) / max(op_norm(ref), 1.0)
                worst = max(worst, err)
        assert worst <= 1e-12

    def test_time_zero_is_identity(self, rng):
        a = random_matrix(rng, 4)
        assert np.allclose(expm(a, 0.0), np.eye(4))

    def test_rejects_negative_time(self, rng):
        with pytest.raises(ValueError):
            expm(random_matrix(rng, 3), -1.0)

    def test_group_property(self, rng):
        a = random_matrix(rng, 6)
        assert np.allclose(expm(a, 2.0), expm(a, 1.0) @ expm(a, 1.0), atol=1e-12)

    def test_stiff_dissipative_contraction(self):
        # large negative-definite part must not overflow or lose contraction
        a = np.diag([-1e4, -1.0, 0.0]).astype(complex)
        for t in (0.1, 1.0, 10.0):
            assert op_norm(expm(a, t)) <= 1.0 + 1e-12

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dissipative_gives_contraction(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_dissipative(rng, n, gap=0.01)
        for t in (0.1, 1.0, 10.0):
            assert op_norm(expm(a, t)) <= 1.0 + 1e-10


class TestContractionCertificate:
    def test_report_fields(self, rng):
        a = random_dissipative(rng, 5)
        report = contraction_certificate(a)
        assert isinstance(report, ContractionReport)
        assert len(report.norms) == len(report.times)
        assert report.passed

    def test_fails_for_expanding_matrix(self):
        report = contraction_certificate(np.array([[1.0]]))
        assert not report.passed

    def test_weighted_certificate(self, rng):
        h = np.diag([2.0, 0.5, 1.0])
        g = Gram(h)
        # dissipative in H but generally not in the Euclidean inner product
        a = np.linalg.inv(h) @ random_dissipative(rng, 3, gap=0.2)
        assert dissipativity_margin(a, g) <= 0
        assert contraction_certificate(a, gram=g).passed
