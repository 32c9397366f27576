"""Stacked primitives against loops of one-matrix calls, and run_verify
against the per-case suite loops it replaced.

Every primitive the verify suites call takes a stack (..., n, n) through
the same code as one matrix.  The oracle for a stack is the loop of
one-matrix calls over its members: values agree to 1e-13 relative, flags
are identical, and a stacked validation error is the member's own error
prefixed with its index.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab import cli
from semilab.cayley import (
    AccretiveOperator,
    ContractionOperator,
    accretive_of_contraction,
    accretivity_lower_bound,
    cayley_of_accretive,
    s_norm_bound,
    strict_contraction_bound,
)
from semilab.feedback import a_s_via_feedback, check_admissible, internal_loop
from semilab.numkernel import (
    _EXPM_THETA,
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
from semilab.simkit import cn_step
from semilab.sysnode import (
    ExtendedOperator,
    SystemNode,
    external_cayley,
    passivity_check,
)

from conftest import (
    random_accretive,
    random_contraction,
    random_dissipative,
    random_dissipative_ext,
    random_matrix,
)

RTOL = 1e-13
DIMS = st.integers(min_value=1, max_value=8)
SIZES = st.integers(min_value=1, max_value=5)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
EXAMPLES = settings(max_examples=15, deadline=None)
BLOCKS = ("a", "b", "c", "d")


def assert_members(stacked, singles):
    """The stacked result equals the per-member results: values to RTOL
    relative to each member's largest entry, flags exactly."""
    ref = np.array(singles)
    got = np.asarray(stacked)
    assert got.shape == ref.shape
    if ref.dtype == bool:
        assert got.dtype == bool and (got == ref).all()
        return
    err = np.abs(got - ref).reshape(len(ref), -1).max(axis=1)
    scale = np.abs(ref).reshape(len(ref), -1).max(axis=1)
    assert (err <= RTOL * scale).all()


def stacked_ext(exts):
    """The stack of the extended operators and the list of its members."""
    ext = ExtendedOperator(*(np.stack([getattr(e, b) for e in exts])
                             for b in BLOCKS))
    return ext, [ExtendedOperator(*(getattr(ext, b)[i] for b in BLOCKS))
                 for i in range(len(exts))]


@given(DIMS, SIZES, SEEDS)
@EXAMPLES
def test_numkernel_stacks_match_member_loops(n, size, seed):
    rng = np.random.default_rng(seed)
    m = np.stack([random_matrix(rng, n) for _ in range(size)])
    b = np.stack([random_matrix(rng, n) for _ in range(size)])
    assert as_complex_matrix(m) is m
    for primitive in (herm_part, op_norm, dissipativity_margin):
        assert_members(primitive(m), [primitive(x) for x in m])
    gram = Gram(np.diag(np.linspace(0.5, 2.0, n)))
    assert_members(dissipativity_margin(m, gram),
                   [dissipativity_margin(x, gram) for x in m])
    # members of different norms take different numbers of squarings: at
    # t = 1 the 1-norms theta_13 / 2 take none and 2 theta_13 take one
    unit = m / np.abs(m).sum(axis=-2).max(axis=-1)[:, None, None]
    scaled = np.concatenate([unit, 4.0 * unit]) * (0.5 * _EXPM_THETA)
    norms = np.abs(scaled).sum(axis=-2).max(axis=-1)
    assert (norms < _EXPM_THETA).any() and (norms > _EXPM_THETA).any()
    for t in (0.0, 0.1, 1.0, 10.0):
        assert_members(expm(scaled, t), [expm(x, t) for x in scaled])
    # some members expand, so the passed flags differ between members
    gaps = np.linspace(-0.05, 0.2, size)
    dissipative = np.stack([random_dissipative(rng, n, gap) for gap in gaps])
    for weight in (None, gram):
        report = contraction_certificate(dissipative, gram=weight)
        singles = [contraction_certificate(x, gram=weight)
                   for x in dissipative]
        for i, norms in enumerate(report.norms):
            assert_members(norms, [r.norms[i] for r in singles])
        assert_members(report.passed, [r.passed for r in singles])
    for anchor in (False, True):
        factor = SvdFactor(m, unit_anchor=anchor)
        singles = [SvdFactor(x, unit_anchor=anchor) for x in m]
        assert_members(factor.cond, [f.cond for f in singles])
        assert_members(factor.singular, [f.singular for f in singles])
        assert_members(factor.solve(b), [f.solve(y) for f, y in zip(singles, b)])
        assert_members(factor.rsolve(b),
                       [f.rsolve(y) for f, y in zip(singles, b)])
    x, cond = svd_solve(m, b)
    singles = [svd_solve(a, y) for a, y in zip(m, b)]
    assert_members(x, [one[0] for one in singles])
    assert_members(cond, [one[1] for one in singles])


@given(DIMS, SIZES, SEEDS)
@EXAMPLES
def test_cayley_stacks_match_member_loops(n, size, seed):
    rng = np.random.default_rng(seed)
    floors = np.linspace(0.01, 1.0, size)
    raw = np.stack([random_accretive(rng, n, floor) for floor in floors])
    s = AccretiveOperator(raw)
    s_one = [AccretiveOperator(x) for x in raw]
    assert_members(s.delta, [x.delta for x in s_one])
    k = cayley_of_accretive(s)
    k_one = [cayley_of_accretive(x) for x in s_one]
    assert_members(k.matrix, [x.matrix for x in k_one])
    assert_members(k.norm, [x.norm for x in k_one])
    back = accretive_of_contraction(k)
    back_one = [accretive_of_contraction(x) for x in k_one]
    assert_members(back.matrix, [x.matrix for x in back_one])
    assert_members(back.delta, [x.delta for x in back_one])
    assert_members(strict_contraction_bound(s),
                   [strict_contraction_bound(x) for x in s_one])
    # unwrapped matrices take the same path as the wrappers
    assert_members(strict_contraction_bound(raw),
                   [strict_contraction_bound(x) for x in raw])
    contractions = np.stack([random_contraction(rng, n, margin)
                             for margin in np.linspace(0.01, 0.9, size)])
    for wrapped in (ContractionOperator(contractions), contractions):
        assert_members(accretivity_lower_bound(wrapped),
                       [accretivity_lower_bound(x) for x in contractions])
        assert_members(s_norm_bound(wrapped),
                       [s_norm_bound(x) for x in contractions])
        assert_members(accretive_of_contraction(wrapped).matrix,
                       [accretive_of_contraction(x).matrix
                        for x in contractions])


@given(DIMS, DIMS, SIZES, SEEDS)
@EXAMPLES
def test_sysnode_stacks_match_member_loops(n1, n2, size, seed):
    rng = np.random.default_rng(seed)
    # negative gaps make some members expansive, so the flags differ
    exts = [random_dissipative_ext(rng, n1, n2, gap)
            for gap in np.linspace(-0.05, 0.2, size)]
    m = random_matrix(rng, n1 + n2)
    skew = (m - m.conj().T) / 2.0
    exts[0] = ExtendedOperator(skew[:n1, :n1], skew[:n1, n1:],
                               skew[n1:, :n1], skew[n1:, n1:])
    ext, exts = stacked_ext(exts)
    for attr in ("matrix", "margin", "dissipative", "skew"):
        assert_members(getattr(ext, attr), [getattr(e, attr) for e in exts])
    node = external_cayley(ext)
    nodes = [external_cayley(e) for e in exts]
    for blk in BLOCKS:
        assert_members(getattr(node, blk), [getattr(x, blk) for x in nodes])
    assert_members(passivity_check(node), [passivity_check(x) for x in nodes])


def test_zero_a22_stack_takes_the_shortcut(rng):
    # W = I: the node and the loop need no factor, for a stack too
    exts = [random_dissipative_ext(rng, 2, 3) for _ in range(3)]
    ext, exts = stacked_ext([ExtendedOperator(e.a, e.b, e.c,
                                              np.zeros((3, 3))) for e in exts])
    node = external_cayley(ext)
    nodes = [external_cayley(e) for e in exts]
    for blk in BLOCKS:
        assert_members(getattr(node, blk), [getattr(x, blk) for x in nodes])
    assert_members(passivity_check(node), [passivity_check(x) for x in nodes])
    s = np.stack([random_accretive(rng, 3, 0.05) for _ in range(3)])
    loop = internal_loop(ext, s)
    loops = [internal_loop(e, x) for e, x in zip(exts, s)]
    assert_members(loop.a_s, [r.a_s for r in loops])
    # one condition number per member, as on the general path
    assert_members(loop.loop_solve_condition,
                   [r.loop_solve_condition for r in loops])


@pytest.mark.parametrize("size", [2, 3, 4])
def test_cn_step_stack_matches_member_steps(rng, size):
    # the identity takes the members' dimension 3, not the stack's length
    a = np.stack([random_dissipative(rng, 3) for _ in range(size)])
    assert_members(cn_step(a, 0.1), [cn_step(x, 0.1) for x in a])


@given(DIMS, DIMS, SIZES, SEEDS)
@EXAMPLES
def test_feedback_stacks_match_member_loops(n1, n2, size, seed):
    rng = np.random.default_rng(seed)
    ext, exts = stacked_ext([random_dissipative_ext(rng, n1, n2)
                             for _ in range(size)])
    s_raw = np.stack([random_accretive(rng, n2, 0.05) for _ in range(size)])
    s = AccretiveOperator(s_raw)
    loop = internal_loop(ext, s)
    loops = [internal_loop(e, x) for e, x in zip(exts, s_raw)]
    assert_members(loop.a_s, [r.a_s for r in loops])
    assert_members(loop.loop_solve_condition,
                   [r.loop_solve_condition for r in loops])
    node, k = external_cayley(ext), cayley_of_accretive(s)
    pairs = [(external_cayley(e), cayley_of_accretive(x))
             for e, x in zip(exts, s_raw)]
    closed = check_admissible(node, k)
    closed_one = [check_admissible(*pair) for pair in pairs]
    assert closed.admissible and all(r.admissible for r in closed_one)
    assert_members(closed.m_condition, [r.m_condition for r in closed_one])
    for blk in BLOCKS:
        assert_members(getattr(closed.closed_loop, blk),
                       [getattr(r.closed_loop, blk) for r in closed_one])
    assert_members(a_s_via_feedback(ext, s),
                   [a_s_via_feedback(e, x) for e, x in zip(exts, s_raw)])


def with_member(good, j, bad):
    """The stack of ``good`` with member j replaced by ``bad``."""
    stack = np.array(good, dtype=complex)
    stack[j] = bad
    return stack


def assert_names_member(call, stacks, j, kind=ValueError):
    """call(*stacks) raises what call(*members j) raises, prefixed with j."""
    with pytest.raises(kind) as stacked:
        call(*stacks)
    with pytest.raises(kind) as single:
        call(*(stack[j] for stack in stacks))
    assert str(stacked.value) == "stack member %d: %s" % (j, single.value)


@pytest.mark.parametrize("j", [0, 2])
class TestStackErrorsNameTheMember:
    def test_non_finite(self, rng, j):
        m = with_member([random_matrix(rng, 3) for _ in range(3)], j,
                        np.nan)
        assert_names_member(as_complex_matrix, [m], j)

    def test_not_accretive(self, rng, j):
        s = with_member([random_accretive(rng, 3, 0.05) for _ in range(3)],
                        j, -np.eye(3))
        assert_names_member(AccretiveOperator, [s], j)

    def test_not_a_contraction(self, rng, j):
        k = with_member([random_contraction(rng, 3) for _ in range(3)], j,
                        1.5 * np.eye(3))
        assert_names_member(ContractionOperator, [k], j)

    def test_unit_contraction(self, rng, j):
        # K = I: I - K is singular and ||K|| = 1
        k = with_member([random_contraction(rng, 3) for _ in range(3)], j,
                        np.eye(3))
        for call in (accretive_of_contraction, accretivity_lower_bound,
                     s_norm_bound):
            assert_names_member(call, [k], j)

    def test_strict_bound_needs_positive_delta(self, rng, j):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        s = with_member([random_accretive(rng, 2, 0.05) for _ in range(3)],
                        j, skew)
        assert_names_member(strict_contraction_bound, [s], j)

    def test_expm_overflow(self, rng, j):
        m = with_member([random_matrix(rng, 2) for _ in range(3)], j,
                        1e300 * np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):
            assert_names_member(expm, [m], j, OverflowError)

    def test_singular_i_minus_a22(self, rng, j):
        exts = [random_dissipative_ext(rng, 1, 1) for _ in range(3)]
        blocks = [with_member([getattr(e, b) for e in exts], j,
                              np.eye(1) if b == "d" else 0.0)
                  for b in BLOCKS]
        assert_names_member(
            lambda *blocks: external_cayley(ExtendedOperator(*blocks)),
            blocks, j)

    def test_singular_loop(self, rng, j):
        # diag(0, -i) with S = i: V = I - S A22 = 0.  One matrix resolves
        # the loop by its rank-revealing split; a stack names the member
        exts = [random_dissipative_ext(rng, 1, 1) for _ in range(3)]
        blocks = [with_member([getattr(e, b) for e in exts], j,
                              -1j if b == "d" else 0.0) for b in BLOCKS]
        s = with_member([random_accretive(rng, 1, 0.05) for _ in range(3)],
                        j, 1j)
        ext = ExtendedOperator(*blocks)
        with pytest.raises(ValueError, match=r"^stack member %d: I - S A22 "
                           "is singular to working precision" % j):
            internal_loop(ext, s)
        one = internal_loop(ExtendedOperator(*(b[j] for b in blocks)), s[j])
        assert one.a_s is not None and not one.a_s.any()

    def test_inadmissible_feedback(self, rng, j):
        # D = 1 and K = 1: I - K D = 0.  One matrix reports an inadmissible
        # result; a stack names the member
        nodes = [external_cayley(random_dissipative_ext(rng, 1, 1))
                 for _ in range(3)]
        blocks = [with_member([getattr(x, b) for x in nodes], j,
                              1.0 if b == "d" else 0.0) for b in BLOCKS]
        k = with_member([random_contraction(rng, 1) for _ in range(3)], j,
                        1.0)
        with pytest.raises(ValueError, match=r"^stack member %d: I - K D is "
                           "singular to working precision" % j):
            check_admissible(SystemNode(*blocks), k)
        one = check_admissible(SystemNode(*(b[j] for b in blocks)), k[j])
        assert not one.admissible and one.closed_loop is None


# The per-case suite loops run_verify had before it grouped cases by
# dimension: the oracle for its verdicts, values and generator stream.

def oracle_cayley_bounds(rng, config):
    worst = -np.inf
    for _ in range(config.cases):
        n = int(rng.integers(1, config.max_dim + 1))
        s = AccretiveOperator(random_accretive(rng, n, config.delta_floor))
        k = cayley_of_accretive(s)
        worst = max(worst, k.norm - strict_contraction_bound(s))
        s_back = accretive_of_contraction(k)
        worst = max(worst, accretivity_lower_bound(k) - s_back.delta)
        worst = max(worst, op_norm(s.matrix) - s_norm_bound(k))
    return cli._check("cayley_bounds", worst, config.tol)


def oracle_cayley_roundtrip(rng, config):
    worst = 0.0
    for _ in range(config.cases):
        n = int(rng.integers(1, config.max_dim + 1))
        s = AccretiveOperator(random_accretive(rng, n, config.delta_floor))
        s_back = accretive_of_contraction(cayley_of_accretive(s))
        err = op_norm(s_back.matrix - s.matrix) / (1.0 + op_norm(s.matrix))
        worst = max(worst, err)
    return cli._check("cayley_roundtrip", worst, config.tol)


def oracle_contraction_margins(rng, config):
    worst = -np.inf
    for _ in range(config.cases):
        n = int(rng.integers(1, config.max_dim + 1))
        report = contraction_certificate(random_dissipative(rng, n))
        worst = max(worst, max(report.norms) - 1.0)
    return cli._check("contraction_margins", worst, config.tol)


def oracle_loop_vs_feedback(rng, config):
    worst = 0.0
    for _ in range(config.cases):
        n1 = int(rng.integers(1, config.max_dim + 1))
        n2 = int(rng.integers(1, config.max_dim + 1))
        ext = random_dissipative_ext(rng, n1, n2)
        s = AccretiveOperator(random_accretive(rng, n2, config.delta_floor))
        a_f = a_s_via_feedback(ext, s)
        a_l = internal_loop(ext, s).a_s
        err = op_norm(a_f - a_l) / (1.0 + op_norm(a_l))
        worst = max(worst, err)
    return cli._check("loop_vs_feedback", worst, config.tol)


def oracle_passivity_lmi(rng, config):
    if config.negative_control:
        one, zero = np.eye(1), np.zeros((1, 1))
        node = external_cayley(ExtendedOperator(one, zero, zero, zero))
        return cli._check("passivity_lmi", passivity_check(node), config.tol)
    worst = -np.inf
    for _ in range(config.cases):
        n1 = int(rng.integers(1, config.max_dim + 1))
        n2 = int(rng.integers(1, config.max_dim + 1))
        node = external_cayley(random_dissipative_ext(rng, n1, n2))
        worst = max(worst, passivity_check(node))
    return cli._check("passivity_lmi", worst, config.tol)


# in run_verify's order, which is the order the suites draw in
SUITES = (
    (cli._check_cayley_bounds, oracle_cayley_bounds),
    (cli._check_cayley_roundtrip, oracle_cayley_roundtrip),
    (cli._check_contraction_margins, oracle_contraction_margins),
    (cli._check_loop_vs_feedback, oracle_loop_vs_feedback),
    (cli._check_passivity_lmi, oracle_passivity_lmi),
)


def assert_same_checks(got, want):
    assert [(c.name, c.threshold, c.passed) for c in got] == \
        [(c.name, c.threshold, c.passed) for c in want]
    for a, b in zip(got, want):
        assert abs(a.measured - b.measured) <= 1e-12


# a block of 3 puts block boundaries inside the 40-case suites
@pytest.mark.parametrize("keys, block", [
    (dict(max_dim=1, cases=40), None),
    (dict(max_dim=1, cases=40), 3),
    (dict(max_dim=8, cases=40), None),
    (dict(max_dim=8, cases=40), 3),
    (dict(max_dim=64, cases=3), None),
    (dict(cases=1), None),
    (dict(max_dim=3, cases=10, negative_control=True), 3),
])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_run_verify_matches_per_case_oracle(monkeypatch, seed, keys, block):
    if block is not None:
        monkeypatch.setattr(cli, "_VERIFY_BLOCK", block)
    config = cli.ExperimentConfig(experiment="verify_random", seed=seed,
                                  **keys)
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    wanted = []
    for suite, oracle in SUITES:
        got, want = suite(rng, config), oracle(oracle_rng, config)
        assert_same_checks([got], [want])
        # the same draws in the same order
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        wanted.append(want)
    assert_same_checks(cli.run_verify(config).checks,
                       sorted(wanted, key=lambda c: c.name))


def test_memory_does_not_grow_with_the_cases(monkeypatch):
    # a block's matrices are all run_verify holds at once.  Dimensions are
    # random, so the largest of 8 blocks may outweigh the largest of 2
    # (by at most 1.35 times over seeds 0-7); drawing every case first
    # grows the peak 2.6 to 3.4 times here
    monkeypatch.setattr(cli, "_VERIFY_BLOCK", 8)
    peaks = []
    for cases in (2 * 8, 8 * 8):
        config = cli.ExperimentConfig(experiment="verify_random", seed=0,
                                      cases=cases, max_dim=64)
        tracemalloc.start()
        try:
            cli.run_verify(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.6 * peaks[0]
