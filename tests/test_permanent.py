import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permpml import permanent
from permpml.approx import block_ones_matrix, k_distinct_column_matrix
from permpml.permanent import (
    is_doubly_stochastic,
    log_coefficient,
    log_permanent,
    logsumexp,
    matrix_from_json,
    matrix_to_json,
    permanent_naive,
)


def test_naive_identity_and_ones():
    assert permanent_naive(np.eye(3)) == 1.0
    assert permanent_naive(np.ones((3, 3))) == 6.0


def test_naive_2x2_formula():
    assert permanent_naive([[1, 2], [3, 4]]) == pytest.approx(1 * 4 + 2 * 3)


def test_naive_guards():
    with pytest.raises(ValueError):
        permanent_naive(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permanent_naive(np.ones((11, 11)))
    with pytest.raises(ValueError):
        permanent_naive([[1.0, -0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        permanent_naive([[np.inf, 1.0], [0.0, 1.0]])


def perm(m) -> float:
    return math.exp(log_permanent(m))


def test_log_permanent_matches_naive_random_6x6():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.random((6, 6))
        exact = permanent_naive(m)
        assert perm(m) == pytest.approx(exact, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_log_permanent_matches_naive_property(n, seed):
    m = np.random.default_rng(seed).random((n, n))
    assert perm(m) == pytest.approx(permanent_naive(m), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_permutation_invariance(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.random((n, n))
    p = rng.permutation(n)
    base = perm(m)
    assert perm(m[p, :]) == pytest.approx(base, rel=1e-12)
    assert perm(m[:, p]) == pytest.approx(base, rel=1e-12)


def test_row_scaling_multiplies():
    rng = np.random.default_rng(3)
    m = rng.random((5, 5))
    scaled = m.copy()
    scaled[2] *= 7.5
    assert perm(scaled) == pytest.approx(7.5 * perm(m), rel=1e-12)


def test_block_diagonal_product():
    rng = np.random.default_rng(4)
    a = rng.random((3, 3))
    b = rng.random((4, 4))
    m = np.zeros((7, 7))
    m[:3, :3] = a
    m[3:, 3:] = b
    assert perm(m) == pytest.approx(perm(a) * perm(b), rel=1e-10)


def test_ryser_identity_and_ones():
    # the exact permanent is log_permanent; these are the checks once made of Ryser's formula
    assert perm(np.eye(4)) == pytest.approx(1.0)
    assert perm(np.ones((2, 2))) == pytest.approx(2.0)


def test_ryser_guard():
    # N = 25 with all columns distinct is past the exact permanent's limits
    with pytest.raises(ValueError):
        log_permanent(np.random.default_rng(25).random((25, 25)))


def test_log_permanent_values():
    assert log_permanent(np.ones((3, 3))) == pytest.approx(math.log(6))
    assert log_permanent(np.zeros((2, 2))) == -math.inf
    assert log_permanent(np.full((5, 5), 0.5)) == pytest.approx(
        5 * math.log(0.5) + math.log(120)
    )


def test_log_permanent_closed_forms_at_large_n():
    # few distinct columns: the cost does not grow with N
    assert log_permanent(np.ones((200, 200))) == pytest.approx(math.lgamma(201), rel=1e-14)
    assert log_permanent(block_ones_matrix(100, 2)) == pytest.approx(
        2 * math.lgamma(51), rel=1e-14
    )


def test_log_permanent_guard():
    # all columns distinct: 2^(N-1) states, past the work limit at N = 20;
    # so are the rows, and on equal work the message names the column side
    tied = np.random.default_rng(20).random((20, 20))
    # two equal rows: the row side is cheaper (2^20 states), but still past
    row_cheaper = np.random.default_rng(22).random((22, 22))
    row_cheaper[1] = row_cheaper[0]
    for m, side in ((tied, "column"), (row_cheaper, "row")):
        tracemalloc.start()
        start = time.process_time()
        try:
            with pytest.raises(ValueError, match=f"grouped evaluation .* on its cheaper side, the {side} side"):
                log_permanent(m)
            elapsed = time.process_time() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 20 * m.nbytes + 100_000  # nothing of the size of the state


def _type_pairs(types, counts):
    return sorted((tuple(t), int(c)) for t, c in zip(types, counts))


def test_grouping_matches_np_unique():
    # the distinct columns with their counts, then the distinct rows of
    # those with theirs: as np.unique finds them, in whatever order
    rng = np.random.default_rng(9)
    cases = []
    for _ in range(40):
        n, rows, cols = rng.integers(1, 13), rng.integers(1, 5), rng.integers(1, 5)
        types = np.where(rng.uniform(size=(rows, cols)) < 0.3, 0.0, rng.uniform(size=(rows, cols)))
        cases.append(types[rng.integers(0, rows, n)][:, rng.integers(0, cols, n)])
    # two columns one ulp apart in one entry stay two types
    ulp = rng.uniform(size=(6, 6))
    ulp[:, 4] = ulp[:, 1]
    ulp[3, 4] = np.nextafter(ulp[3, 1], 2.0)
    cases.append(ulp)
    for m in cases:
        cols, phi = permanent._distinct_columns(m)
        want = np.unique(m, axis=1, return_counts=True)
        assert _type_pairs(cols.T, phi) == _type_pairs(want[0].T, want[1])
        rows, rho = permanent._distinct_columns(cols.T)
        want = np.unique(cols, axis=0, return_counts=True)
        assert _type_pairs(rows.T, rho) == _type_pairs(*want)
    assert len(permanent._distinct_columns(ulp)[1]) == 6
    assert log_permanent(block_ones_matrix(12, 2)) == 2 * math.lgamma(7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_permanent_of_a_transpose(seed):
    # k = 4 distinct rows: the column side would have 2^199 states
    a, _ = k_distinct_column_matrix(200, 4, seed)
    start = time.process_time()
    assert log_permanent(a.T) == pytest.approx(log_permanent(a), rel=1e-12)
    assert time.process_time() - start < 1.0


def test_log_permanent_splits_components():
    # the graph of the nonzero entries falls apart: perm is the product over
    # its components, and the all-distinct columns no longer matter
    assert log_permanent(np.eye(40)) == 0.0
    a, _ = k_distinct_column_matrix(30, 3, 1)
    b, _ = k_distinct_column_matrix(25, 2, 2)
    m = np.zeros((55, 55))
    m[:30, :30] = a
    m[30:, 30:] = b
    assert log_permanent(m) == pytest.approx(log_permanent(a) + log_permanent(b), rel=1e-13)
    rng = np.random.default_rng(8)
    blocks = [rng.random((8, 8)) for _ in range(5)]
    dense = np.zeros((40, 40))
    for i, block in enumerate(blocks):
        dense[8 * i : 8 * i + 8, 8 * i : 8 * i + 8] = block
    shuffle_rows, shuffle_cols = rng.permutation(40), rng.permutation(40)
    expected = sum(math.log(permanent_naive(block)) for block in blocks)
    assert log_permanent(dense[shuffle_rows][:, shuffle_cols]) == pytest.approx(expected, rel=1e-12)
    # a component with more rows than columns has no perfect matching
    lopsided = np.eye(4)
    lopsided[2] = [0.0, 0.5, 0.0, 0.0]
    assert log_permanent(lopsided) == -math.inf


def test_log_permanent_of_a_triangular_matrix_is_its_diagonal():
    # one connected component with all 30 columns distinct (2^29 states),
    # but 30 fully indecomposable 1 x 1 blocks: the entries above the
    # diagonal lie on no perfect matching
    m = np.triu(np.random.default_rng(4).uniform(0.5, 1.0, (30, 30)))
    start = time.process_time()
    value = log_permanent(m)
    assert time.process_time() - start < 1.0
    assert value == pytest.approx(float(np.sum(np.log(np.diag(m)))), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.integers(0, 10_000))
def test_homogeneous_coefficient_matches_naive(phi, seed):
    # the coefficient times prod phi_j! is the permanent of the matrix with
    # phi_j copies of column type j and rho_i copies of row i; types of count
    # 0 drop out, and any type may be the one eliminated
    n = sum(phi)
    assume(1 <= n <= 7)
    rng = np.random.default_rng(seed)
    rho = np.bincount(rng.integers(0, n, n))
    rho = rho[rho > 0]
    c = rng.uniform(0.1, 2.0, (len(rho), len(phi)))
    m = np.repeat(np.repeat(c, rho, axis=0), phi, axis=1)
    expected = math.log(permanent_naive(m)) - sum(math.lgamma(f + 1) for f in phi)
    value = permanent._log_coefficient_dp(phi, np.log(c), rho.tolist())
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
    # the transposed call, corrected by sum log rho_i! - sum log phi_j!
    correction = sum(math.lgamma(r + 1) for r in rho) - sum(math.lgamma(f + 1) for f in phi)
    transposed = permanent._log_coefficient_dp(rho.tolist(), np.log(c).T, phi) + correction
    assert transposed == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert log_coefficient(phi, np.log(c), rho) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_coefficient_guard_raises_before_allocating(monkeypatch):
    # four column types and four row types of count 100: on either side the
    # type first in order is eliminated, the other three need
    # 101^3 > GROUPED_STATE_LIMIT states, and the call raises before that
    # state (8 MB) is allocated, naming the column side on the tie
    log_c = np.zeros((4, 4))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="grouped evaluation needs 1030301 states .* the column side"):
            log_coefficient((100, 100, 100, 100), log_c, (100, 100, 100, 100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # the work is counted exactly: with (2, 1) left after the type of count
    # 3 is eliminated, 3 x 2 states, 2 slices per shift, 6 shifts; the row
    # side (six rows of count 1) needs 32 x 5 x 6 = 960 updates
    log_c = np.log(np.random.default_rng(0).uniform(0.1, 2.0, (6, 3)))
    monkeypatch.setattr(permanent, "GROUPED_WORK_LIMIT", 72)
    value = log_coefficient((3, 2, 1), log_c, [1] * 6)
    assert value == permanent._log_coefficient_dp([3, 2, 1], log_c, [1] * 6)
    monkeypatch.setattr(permanent, "GROUPED_WORK_LIMIT", 71)
    with pytest.raises(ValueError, match="needs 6 states and 72 slice updates on its cheaper side, the column side"):
        log_coefficient((3, 2, 1), log_c, [1] * 6)


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_matches_scipy(axis):
    from scipy.special import logsumexp as scipy_logsumexp

    rng = np.random.default_rng(7)
    random = rng.normal(0.0, 20.0, (12, 5))
    # one entry dominates; the rest are about 1e-10 of it, where a plain
    # log of the shifted sum rounds them into 1
    dominated = np.log(rng.uniform(0.5, 2.0, (12, 5)) * 1e-10)
    dominated[np.arange(12), rng.integers(0, 5, 12)] = 0.0
    # exact ties of the maximum, two to five per row
    ties = rng.normal(0.0, 1.0, (12, 5))
    for i, count in enumerate(rng.integers(2, 6, 12)):
        ties[i, :count] = ties[i].max() + 1.0
    # -inf entries, as the log of a sparse matrix in Sinkhorn
    sparse = np.where(rng.uniform(size=(12, 5)) < 0.4, -np.inf, random)
    sparse[np.arange(12), np.arange(12) % 5] = 1.0
    for a in (random, dominated, ties, sparse):
        a = a if axis == 1 else a.T.copy()
        want = scipy_logsumexp(a, axis=axis)
        got = logsumexp(a, axis)
        assert got.shape == want.shape
        np.testing.assert_array_max_ulp(got, want, maxulp=4)


def test_is_doubly_stochastic():
    assert is_doubly_stochastic(np.eye(3), 1e-12)
    assert is_doubly_stochastic(np.full((2, 2), 0.5), 1e-12)
    assert not is_doubly_stochastic([[0.9, 0.1], [0.2, 0.8]], 1e-12)
    assert not is_doubly_stochastic(np.ones((2, 3)), 1e-12)
    with pytest.raises(ValueError):
        is_doubly_stochastic(np.eye(2), 0.0)


def test_matrix_json_round_trip():
    m = np.array([[0.25, 1.5], [3.0, 0.0]])
    text = matrix_to_json(m)
    obj = json.loads(text)
    assert obj["rows"] == 2 and obj["cols"] == 2
    np.testing.assert_array_equal(matrix_from_json(text), m)
    with pytest.raises(ValueError):
        matrix_from_json(json.dumps({"rows": 2, "cols": 2, "data": [1, 2, 3]}))
