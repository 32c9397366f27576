import ast
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import semilab
from semilab.cayley import AccretiveOperator
from semilab.cli import _accretive, _shifted
from semilab.feedback import check_admissible, internal_loop
from semilab.numkernel import (
    _EXPM_THETA,
    _exact_diagonal,
    _hermitian,
    _matmul,
    ContractionReport,
    Gram,
    SvdFactor,
    as_complex_matrix,
    contraction_certificate,
    dissipativity_margin,
    expm,
    op_norm,
    svd_solve,
)
from semilab.pdelab import Grid1D, PdeCoefficients, energy_gram, wave_ext
from semilab.simkit import Trajectory, simulate_semigroup
from semilab.sysnode import (
    ExtendedOperator,
    SystemNode,
    external_cayley,
    passivity_check,
)

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
        assert ext.d.any()
        node = external_cayley(ext)
        k = random_contraction(rng, 2, margin=0.2)
        s = np.eye(2) + random_matrix(rng, 2) / 4
        for construct in (lambda: external_cayley(ext),
                          lambda: check_admissible(node, k),
                          lambda: internal_loop(ext, s)):
            del svd_calls[:]
            construct()
            assert len(svd_calls) == 1


def dense_hermitian(eigenvalues):
    """A dense complex Hermitian matrix with the given eigenvalues."""
    rng = np.random.default_rng(len(eigenvalues))
    q, _ = np.linalg.qr(random_matrix(rng, len(eigenvalues)))
    h = (q * np.asarray(eigenvalues)) @ q.conj().T
    return (h + h.conj().T) / 2.0


class TestGram:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            Gram(np.diag([1.0, -1.0]))

    def test_rejects_nonhermitian(self, rng):
        with pytest.raises(ValueError, match="gram matrix is not Hermitian"):
            Gram(random_matrix(rng, 4) + 3 * np.eye(4))

    @pytest.mark.parametrize("size", [2, 3])
    def test_refuses_a_stack(self, size):
        with pytest.raises(ValueError, match=r"^gram matrix must be one "
                           r"matrix, got shape \(%d, 3, 3\)$" % size):
            Gram(np.stack([np.eye(3)] * size))

    def test_accepts_roundoff_skew(self):
        h = np.array([[2.0, 1.0 + 1e-15], [1.0, 2.0]])
        assert np.allclose(Gram(h).matrix, [[2.0, 1.0], [1.0, 2.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [np.diag([1e308, 1.0]),
                                   np.array([[1e308, 1.0], [1.0, 1.0]])],
                             ids=["diagonal", "dense"])
    def test_refuses_an_overflowing_hermitian_part(self, h):
        with pytest.raises(ValueError, match="^gram matrix has a non-finite "
                                             "Hermitian part$"):
            Gram(h)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_huge_skew_pair_by_name(self):
        # m - m* overflows here; the skew part m - herm(m) does not
        with pytest.raises(ValueError, match="^gram matrix is not Hermitian$"):
            Gram([[1.0, 1e308], [-1e308, 1.0]])

    def test_hermitian_matrix_needs_no_norm(self, rng, svd_calls):
        m = random_matrix(rng, 6)
        Gram((m + m.conj().T) / 2.0 + 3 * np.eye(6))
        Gram(np.diag([1.0, 4.0, 0.25]))
        assert svd_calls == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h, refusal", [
        (np.diag([1.0, 0.0, 2.0]), "is not positive definite"),
        (np.diag([1.0, -1.0, 2.0]), "is not positive definite"),
        (np.diag([1.0, -1e-300, 2.0]), "is not positive definite"),
        (np.diag([8.9e307, 1.0]), None),
        (dense_hermitian([0.5, 1.0, 2.0, 3.0, 4.0, 6.0]), None),
        (dense_hermitian([-0.5, 1.0, 2.0, 3.0, 4.0, 6.0]),
         "is not positive definite"),
        (np.array([[1.0, 1e308], [-1e308, 1.0]]), "is not Hermitian"),
    ], ids=["zero", "negative", "tiny-negative", "huge", "dense",
            "dense-indefinite", "huge-skew"])
    def test_verdicts(self, h, refusal):
        if refusal is None:
            assert same_bits(Gram(h).matrix, h)
        else:
            with pytest.raises(ValueError, match="^gram matrix %s$" % refusal):
                Gram(h)

    @pytest.mark.parametrize("call", [
        lambda a, g: simulate_semigroup(a, g, x0=np.ones(3), T=0.1, dt=0.01),
    ], ids=["simulate"])
    def test_dimension_mismatch_names_both(self, call):
        with pytest.raises(ValueError, match="^operator dimension 3 does not "
                                             "match gram dimension 4$"):
            call(-np.eye(3), Gram(np.eye(4)))

    def test_weighted_vector_norm(self):
        g = Gram(np.diag([4.0, 1.0]))
        assert g.weighted_vector_norm(np.array([1.0, 0.0])) == pytest.approx(2.0)

    # one row, and row counts on both sides of a power of two
    @pytest.mark.parametrize("nrows", [1, 4095, 4096, 4097])
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


def spread_diagonal(rng, n, complex_):
    """n entries of random sign with magnitudes spread over 1e-30 .. 1e30."""
    def part():
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30, 30, n)
    return part() + 1j * part() if complex_ else part()


def same_bits(got, want):
    """Equal values and dtype; the sign of a zero is not compared."""
    return got.dtype == want.dtype and np.array_equal(got, want)


SIZES = [1, 2, 7, 300]


class TestExactDiagonal:
    """Every diagonal shortcut against the dense operation it replaces."""

    def test_decides_only_exact_diagonals(self):
        d = np.array([2.0, -0.0, 3.0])
        assert np.array_equal(_exact_diagonal(np.diag(d)), d)
        signed_zero = np.diag(d)
        signed_zero[0, 2] = -0.0
        assert _exact_diagonal(signed_zero) is not None
        tiny = np.diag(d)
        tiny[2, 0] = 5e-324
        for m in (tiny, np.stack([np.eye(3)] * 2), np.zeros((2, 3)),
                  np.zeros((0, 0))):
            assert _exact_diagonal(m) is None

    def test_subnormal_off_diagonal_takes_the_dense_path(self, lapack_calls):
        m = np.diag([2.0, 3.0])
        AccretiveOperator(m)
        Gram(m)
        assert lapack_calls == []
        m[0, 1] = m[1, 0] = 5e-324
        AccretiveOperator(m)
        Gram(m)
        assert lapack_calls == ["eigvalsh", "eigvalsh"]

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", SIZES)
    def test_accretivity_bound(self, n, complex_, lapack_calls):
        rng = np.random.default_rng(n)
        d = spread_diagonal(rng, n, complex_)
        d = np.abs(d.real) + 1j * d.imag if complex_ else np.abs(d)
        m = np.diag(d)
        lam = np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]
        del lapack_calls[:]
        delta = AccretiveOperator(m).delta
        # a complex diagonal takes the eigensolver
        assert lapack_calls == (["eigvalsh"] if complex_ else [])
        assert delta == max(lam, 0.0) and type(delta) is float

    @pytest.mark.parametrize("n", SIZES)
    def test_negative_diagonal_keeps_the_message(self, n):
        rng = np.random.default_rng(n)
        d = np.abs(spread_diagonal(rng, n, False))
        d[n // 2] = -d.max()
        m = np.diag(d)
        lam = np.linalg.eigvalsh(m)[0]
        with pytest.raises(ValueError) as err:
            AccretiveOperator(m)
        assert str(err.value) == \
            "matrix is not accretive: min Hermitian eigenvalue %g" % lam

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", SIZES)
    def test_gram_factor(self, n, dtype, lapack_calls):
        # a real diagonal weight is validated from its entries, with no
        # LAPACK call, a complex one by the eigensolver; both are kept as
        # given
        rng = np.random.default_rng(n)
        h = np.diag(np.abs(spread_diagonal(rng, n, False))).astype(dtype)
        gram = Gram(h)
        assert lapack_calls == ([] if dtype is np.float64 else ["eigvalsh"])
        assert same_bits(gram.matrix, h)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300])
    def test_gram_keeps_the_definiteness_message(self, bad):
        d = np.ones(5)
        d[3] = bad
        with pytest.raises(ValueError,
                           match="^gram matrix is not positive definite$"):
            Gram(np.diag(d))

    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", SIZES)
    def test_squared_norms(self, n, dtype, complex_rows):
        rng = np.random.default_rng(n)
        h = np.diag(np.abs(spread_diagonal(rng, n, False))).astype(dtype)
        rows = spread_diagonal(rng, 9 * n, complex_rows).reshape(9, n)
        want = np.maximum(
            np.einsum("ij,ij->i", rows.conj(), rows @ h.T).real, 0.0)
        assert same_bits(Gram(h).squared_norms(rows), want)

    @pytest.mark.parametrize("complex_other", [False, True])
    @pytest.mark.parametrize("complex_diagonal", [False, True])
    @pytest.mark.parametrize("n", SIZES)
    def test_products(self, n, complex_diagonal, complex_other):
        # K C, K D (row scalings) and A H (a column scaling)
        rng = np.random.default_rng(n)
        k = np.diag(spread_diagonal(rng, n, complex_diagonal))
        other = spread_diagonal(rng, 3 * n, complex_other).reshape(n, 3)
        assert same_bits(_matmul(k, other), k @ other)
        assert same_bits(_matmul(other.T, k), other.T @ k)
        stack = other.reshape(1, n, 3) * np.ones((2, 1, 1))
        assert same_bits(_matmul(k, stack), k @ stack)

    @pytest.mark.parametrize("n", SIZES)
    def test_loop_closures(self, n, rng, dense_only):
        # internal loop through a diagonal S (A22 = 0 and A22 != 0) and
        # output feedback through a diagonal K
        s = np.diag(np.abs(spread_diagonal(rng, n, False)))
        ext0 = random_dissipative_ext(rng, 4, n)
        ext0 = ExtendedOperator(ext0.a, ext0.b, ext0.c, np.zeros((n, n)))
        ext1 = random_dissipative_ext(rng, 4, n)
        node = SystemNode(ext1.a, ext1.b, ext1.c, 1e-3 * ext1.d)
        # S A22 and K D stay below 1, so both loops are solvable
        ext1 = ExtendedOperator(ext1.a, ext1.b, ext1.c, 1e-31 * ext1.d)
        k = np.diag(spread_diagonal(rng, n, True) * 1e-30)

        def closures():
            fb = check_admissible(node, k)
            return [internal_loop(ext0, s).a_s, internal_loop(ext1, s).a_s,
                    fb.closed_loop.a, fb.closed_loop.b, fb.closed_loop.c,
                    fb.closed_loop.d, np.array(fb.m_condition)]

        fast = closures()
        dense_only()
        for got, want in zip(fast, closures()):
            assert same_bits(got, want)

    @pytest.mark.parametrize("zero_feedthrough", [False, True])
    def test_stacked_node_through_the_identity(self, rng, dense_only,
                                               zero_feedthrough):
        # external_cayley closes a stack through one 2-D identity K,
        # which scales the rows of every member's C and D
        exts = [random_dissipative_ext(rng, 3, 2) for _ in range(4)]
        blocks = [np.stack([getattr(e, name) for e in exts])
                  for name in "abcd"]
        if zero_feedthrough:
            blocks[3] = np.zeros_like(blocks[3])
        ext = ExtendedOperator(*blocks)
        fast = external_cayley(ext)
        dense_only()
        slow = external_cayley(ext)
        for name in "abcd":
            assert same_bits(getattr(fast, name), getattr(slow, name))


def dense_herm_eigvalsh(m):
    """eigvalsh of (m + m*)/2 written out, always on the dense path."""
    return np.linalg.eigvalsh((m + m.conj().mT) / 2.0)


def lmi_block_by_hand(node):
    """The passivity LMI block of ``passivity_check``, written out."""
    a, b, c, d = node.a, node.b, node.c, node.d
    ch = c.conj().mT
    cross = b + ch @ d
    return np.block([[a + a.conj().mT + ch @ c, cross],
                     [cross.conj().mT,
                      d.conj().mT @ d - np.eye(node.ninputs, dtype=d.dtype)]])


def random_operand(rng, shape, complex_):
    m = rng.standard_normal(shape)
    return m + 1j * rng.standard_normal(shape) if complex_ else m


ORACLE_SIZES = [1, 2, 7, 64]


ONE_OR_STACK = pytest.mark.parametrize("stack", [False, True],
                                      ids=["one", "stack"])


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", ORACLE_SIZES)
class TestHermitianRule:
    """Every verdict on a Hermitian part, bitwise against its formula
    written out by hand."""

    @ONE_OR_STACK
    def test_margin_and_accretivity(self, n, complex_, stack):
        rng = np.random.default_rng(n)
        m = random_operand(rng, (3, n, n) if stack else (n, n), complex_)
        lam = dense_herm_eigvalsh(m)
        assert same_bits(np.asarray(dissipativity_margin(m)), lam[..., -1])
        s = _accretive(m, 0.05)
        assert same_bits(s, _shifted(m, 0.05 - lam[..., 0]))
        want = np.maximum(dense_herm_eigvalsh(s)[..., 0], 0.0)
        assert same_bits(np.asarray(AccretiveOperator(s).delta), want)

    @ONE_OR_STACK
    def test_passivity(self, n, complex_, stack):
        rng = np.random.default_rng(n)
        batch = (3,) if stack else ()
        node = SystemNode(*(random_operand(rng, batch + shape, complex_)
                            for shape in ((n, n), (n, 2), (2, n), (2, 2))))
        want = dense_herm_eigvalsh(lmi_block_by_hand(node))[..., -1]
        assert same_bits(np.asarray(passivity_check(node)), want)

    @ONE_OR_STACK
    def test_skew(self, n, complex_, stack):
        # near-skew extended operators, where A + A* cancels: the margin of
        # the assembled matrix is the hand-written one, and exactly zero
        # for the exactly skew one
        rng = np.random.default_rng(n)
        m = random_operand(rng, (3, n + 1, n + 1) if stack else (n + 1,) * 2,
                           complex_)
        k = m - m.conj().mT
        for scale in (0.0, 1e-14, 1e-11, 1e-9, 1e-6):
            full = k + scale * m
            ext = ExtendedOperator(full[..., :n, :n], full[..., :n, n:],
                                   full[..., n:, :n], full[..., n:, n:])
            margin = np.asarray(dissipativity_margin(ext.matrix))
            assert same_bits(margin, dense_herm_eigvalsh(full)[..., -1])
            assert scale or not margin.any()
            # halving is exact: the norm of the Hermitian part is half
            # A + A*'s
            assert same_bits(np.asarray(op_norm(_hermitian(full, "m"))),
                             np.asarray(op_norm(full + full.conj().mT)) / 2.0)

    def test_gram_symmetry(self, n, complex_):
        rng = np.random.default_rng(n)
        p = random_operand(rng, (n, n), complex_)
        h = p @ p.conj().T + n * np.eye(n)
        h = (h + h.conj().T) / 2.0
        skew = p - p.conj().T
        scales = [0.0, 1e-15, 1e-13, 1e-11, 1e-9]
        if skew.any():
            # m - m* at 0.75 and 1.5 of the bound
            scales += [frac * 1e-12 * op_norm(h) / (2.0 * op_norm(skew))
                       for frac in (0.75, 1.5)]
        verdicts = []
        for scale in scales:
            g = h + scale * skew
            d = g - g.conj().T
            want = not d.any() or op_norm(d) <= 1e-12 * max(op_norm(g), 1.0)
            if want:
                assert same_bits(Gram(g).matrix, (g + g.conj().T) / 2.0)
            else:
                with pytest.raises(ValueError,
                                   match="^gram matrix is not Hermitian$"):
                    Gram(g)
            verdicts.append(want)
        if skew.any():
            assert verdicts[-2:] == [True, False]


def diagonal_verdicts(n, complex_, lapack_calls):
    """The margin and passivity verdicts of diagonal A and D, next to the
    dense ones; the eigensolver calls of the verdicts stay in lapack_calls.
    Magnitudes 1e-30 .. 1e30 (squared in D* D): LAPACK does not rescale."""
    rng = np.random.default_rng(n)
    a, d = (np.diag(spread_diagonal(rng, n, complex_)) for _ in range(2))
    zero = np.zeros((n, n))
    node = SystemNode(a, zero, zero, d)
    want = [dense_herm_eigvalsh(a)[-1],
            dense_herm_eigvalsh(lmi_block_by_hand(node))[-1]]
    del lapack_calls[:]
    got = [dissipativity_margin(a), passivity_check(node)]
    assert same_bits(np.array(got), np.array(want))


@pytest.mark.parametrize("n", SIZES, ids=["%d-real" % n for n in SIZES])
def test_diagonal_verdicts_call_no_eigensolver(n, lapack_calls):
    diagonal_verdicts(n, False, lapack_calls)
    assert lapack_calls == []


@pytest.mark.parametrize("n", SIZES, ids=["%d-complex" % n for n in SIZES])
def test_complex_diagonal_verdicts_take_the_eigensolver(n, lapack_calls):
    # a complex diagonal takes the dense path, with the same values
    diagonal_verdicts(n, True, lapack_calls)
    assert lapack_calls == ["eigvalsh"] * 2


def package_trees():
    """(file name, parsed module) for every module of the package."""
    package = os.path.dirname(semilab.__file__)
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            with open(os.path.join(package, fname)) as f:
                yield fname, ast.parse(f.read(), fname)


def test_one_eigensolver_call_and_one_diagonality_test():
    """eigvalsh is named once in src/, in numkernel; _exact_diagonal is
    named only where it is defined and inside _matmul and _herm_eigvalsh;
    and no factor of a Gram (cholesky, similar) is named anywhere, so
    every Hermitian verdict, Gram's positive definiteness among them,
    reads one rule."""
    found = {}

    def walk(node, fname, function):
        for child in ast.iter_child_nodes(node):
            inside = (child.name if function is None and isinstance(
                child, ast.FunctionDef) else function)
            name = (child.attr if isinstance(child, ast.Attribute) else
                    child.id if isinstance(child, ast.Name) else
                    child.name if isinstance(
                        child, (ast.alias, ast.FunctionDef)) else
                    child.value if isinstance(child, ast.Constant) else None)
            if name in ("eigvalsh", "_exact_diagonal", "cholesky", "similar"):
                found.setdefault(name, []).append((fname, inside))
            walk(child, fname, inside)

    for fname, tree in package_trees():
        walk(tree, fname, None)
    assert found["eigvalsh"] == [("numkernel.py", "_herm_eigvalsh")]
    assert set(found["_exact_diagonal"]) == {
        ("numkernel.py", name)
        for name in ("_exact_diagonal", "_matmul", "_herm_eigvalsh")}
    assert "cholesky" not in found and "similar" not in found


def test_unreached_members_stay_deleted():
    """herm_part, neumann_heat_ext and nsamples are named nowhere in src/,
    ExtendedOperator defines only __init__ and matrix (and its block
    names), and a Trajectory is the record (times, energy)."""
    named, members = set(), None
    for _, tree in package_trees():
        for node in ast.walk(tree):
            named.add(node.attr if isinstance(node, ast.Attribute) else
                      node.id if isinstance(node, ast.Name) else
                      node.name if isinstance(node, (
                          ast.alias, ast.FunctionDef, ast.ClassDef)) else
                      node.value if isinstance(node, ast.Constant) else None)
            if isinstance(node, ast.ClassDef) and \
                    node.name == "ExtendedOperator":
                members = {child.name for child in node.body
                           if isinstance(child, ast.FunctionDef)}
                members |= {target.id for child in node.body
                            if isinstance(child, ast.Assign)
                            for target in child.targets}
    assert not named & {"herm_part", "neumann_heat_ext", "nsamples"}
    assert members == {"__init__", "matrix", "_names"}
    assert Trajectory._fields == ("times", "energy")


class TestDissipativityMargin:
    def test_zero_matrix(self):
        assert dissipativity_margin(np.zeros((3, 3))) == pytest.approx(0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, prefix", [
        (np.diag([1e308, 1.0]), ""),
        (np.array([[1.0, 1e308], [1e308, 1.0]]), ""),
        (np.stack([np.eye(1), [[1e308]]]), "stack member 1: "),
    ], ids=["diagonal", "dense", "stack"])
    def test_refuses_an_overflowing_hermitian_part(self, a, prefix):
        # the margin used to come out as nan, which no tolerance rejects
        with pytest.raises(ValueError, match="^%smatrix has a non-finite "
                                             "Hermitian part$" % prefix):
            dissipativity_margin(a)

    def test_empty_matrix_margin_is_minus_inf(self):
        # the max over no eigenvalues, one per member of a stack
        assert dissipativity_margin(np.zeros((0, 0))) == -np.inf
        assert dissipativity_margin(np.zeros((2, 0, 0))).tolist() == \
            [-np.inf, -np.inf]

    def test_skew_hermitian_margin_zero(self, rng):
        m = random_matrix(rng, 6)
        skew = (m - m.conj().T) / 2.0
        assert abs(dissipativity_margin(skew)) <= 1e-12

    def test_diagonal_example(self):
        a = np.diag([-1.0, -3.0])
        assert dissipativity_margin(a) == pytest.approx(-1.0)

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

    @pytest.mark.parametrize("factor", [0.9, 1.1, 40.0],
                             ids=["0-squarings", "1-squaring", "6-squarings"])
    def test_matches_scipy_across_threshold(self, rng, factor):
        # ||At||_1 = factor * theta_13 takes ceil(log2(factor))^+ squarings
        for n in (1, 2, 5, 12):
            a = random_matrix(rng, n)
            t = factor * _EXPM_THETA / np.abs(a).sum(axis=0).max()
            ref = scipy.linalg.expm(a * t)
            assert op_norm(expm(a, t) - ref) <= 1e-12 * op_norm(ref)

    def test_matches_scipy_on_wave_heat_generator(self):
        grid = Grid1D(64)
        coeffs = PdeCoefficients(grid, rho=lambda x: 1.0 + 0.5 * x,
                                 young=lambda x: 2.0 - x)
        a = wave_ext(grid).matrix @ energy_gram(grid, coeffs).matrix
        assert a.shape == (127, 127)
        for t in (0.01, 0.1, 1.0):
            ref = scipy.linalg.expm(a * t)
            assert op_norm(expm(a, t) - ref) <= 1e-12 * op_norm(ref)

    def test_time_zero_is_identity(self, rng):
        for a in (random_matrix(rng, 4), random_matrix(rng, 4).real,
                  np.stack([random_matrix(rng, 4) for _ in range(3)])):
            x = expm(a, 0.0)
            assert x.dtype == a.dtype
            assert (x == np.eye(4)).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (3, 5, 5)],
                             ids=["1x1", "5x5", "stack"])
    def test_zero_matrix_is_exact_identity(self, dtype, shape):
        # an integer-scaled Pade numerator gives 1 - 2^-53 at (1, 1)
        x = expm(np.zeros(shape, dtype=dtype), 2.0)
        assert x.dtype == dtype
        assert (x == np.eye(shape[-1])).all()

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_refuses_a_bad_time_by_name(self, bad):
        with pytest.raises(ValueError, match="^times must be finite and "
                                             "nonnegative$"):
            contraction_certificate(-np.eye(2), times=(1.0, bad))

    def test_times_and_tol_are_keyword_only(self):
        # a gram once came second; passed there now, it is refused
        # instead of being read as the times
        with pytest.raises(TypeError):
            contraction_certificate(-np.eye(2), Gram(np.eye(2)))
        with pytest.raises(TypeError):
            dissipativity_margin(-np.eye(2), Gram(np.eye(2)))
        report = contraction_certificate(-np.eye(2), times=[2.0], tol=0.5)
        assert report.times == (2.0,) and report.tol == 0.5
