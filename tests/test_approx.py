import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix
from scipy.special import gammaln, logsumexp

from permpml import approx, permanent
from permpml.approx import (
    BETHE_TOL,
    bethe_permanent,
    block_ones_matrix,
    functional_u,
    functional_v,
    k_distinct_column_matrix,
    scaled_sinkhorn_permanent,
    sinkhorn_permanent,
    sinkhorn_scale,
)
from permpml.permanent import is_doubly_stochastic, log_permanent, permanent_naive, support_blocks

J2 = np.ones((2, 2))
ILL_CONDITIONED = np.array([[1e-200, 1e-200], [1e-200, 1.0]])


def test_functional_u_values():
    assert functional_u(J2, J2 / 2) == pytest.approx(2 * math.log(2))
    assert functional_u(np.eye(2), np.eye(2)) == 0.0
    assert functional_u(np.eye(2), J2 / 2) == -math.inf
    with pytest.raises(ValueError):
        functional_u(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        functional_u(J2, J2)  # not doubly stochastic


def test_functional_v_values():
    assert functional_v(np.eye(3)) == 0.0
    assert functional_v(J2 / 2) == pytest.approx(-2 * math.log(2))
    with pytest.raises(ValueError):
        functional_v([[1.5, 0.0], [0.0, 1.0]])


def test_functional_v_lower_bound_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        q = sinkhorn_scale(rng.uniform(0.05, 1.0, (5, 5))).q
        assert -5.0 <= functional_v(q) <= 1e-12


def test_sinkhorn_all_ones_one_sweep():
    w = sinkhorn_scale(np.ones((3, 3)))
    assert w.iterations == 1
    np.testing.assert_allclose(w.q, np.full((3, 3), 1 / 3), atol=1e-15)


def test_sinkhorn_diagonal_recovers_inverse():
    a = np.diag([2.0, 5.0])
    w = sinkhorn_scale(a)
    np.testing.assert_allclose(w.q, np.eye(2), atol=1e-12)
    _assert_diagonal_scaling(w.q, a)
    # the scalings are 1/2 and 1/5, and the value is minus the sum of their logs
    assert w.log_value == pytest.approx(math.log(10.0), rel=1e-12)


def _assert_diagonal_scaling(q, a):
    """q is diag(x) a diag(y) for some positive x, y: log q - log a = log x_i + log y_j on q's support."""
    rows, cols = np.nonzero(q)
    assert np.all(a[rows, cols] > 0)
    entries, n = np.arange(len(rows)), len(a)
    design = np.zeros((len(rows), 2 * n))
    design[entries, rows] = design[entries, n + cols] = 1.0
    target = np.log(q[rows, cols]) - np.log(a[rows, cols])
    fit = np.linalg.lstsq(design, target, rcond=None)[0]
    assert np.abs(design @ fit - target).max() <= 1e-10


def test_sinkhorn_matches_grid_search_2x2(monkeypatch):
    # 2x2 doubly stochastic matrices form a one-parameter family, so U can be
    # maximized by brute force on a dense grid.
    a = np.array([[1.0, 1.0], [1.0, 2.0]])
    monkeypatch.setattr(approx, "SINKHORN_TOL", 1e-12)
    w = sinkhorn_scale(a)
    assert w.residual <= 1e-12
    ts = np.linspace(1e-9, 1 - 1e-9, 100_001)
    with np.errstate(divide="ignore"):
        u = (
            ts * np.log(1 / ts)
            + (1 - ts) * np.log(1 / (1 - ts))
            + (1 - ts) * np.log(1 / (1 - ts))
            + ts * np.log(2 / ts)
        )
    assert functional_u(a, w.q) == pytest.approx(float(u.max()), abs=1e-8)


def test_sinkhorn_witness_contract():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.01, 1.0, (6, 6))
    w = sinkhorn_scale(a)
    assert is_doubly_stochastic(w.q, max(w.residual, 1e-15))
    _assert_diagonal_scaling(w.q, a)


def test_sinkhorn_requires_support():
    with pytest.raises(ValueError):
        sinkhorn_scale(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_sinkhorn_without_total_support_runs_on_its_blocks():
    # the identity fits, but no permutation uses the entry (0, 1): on the
    # whole support the iterates would creep towards the identity, the
    # residual falling like 1/sweeps; on its two 1 x 1 blocks one sweep lands
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    w = sinkhorn_scale(a)
    assert (w.iterations, w.residual) == (1, 0.0)
    np.testing.assert_array_equal(w.q, np.eye(2))
    for method in (sinkhorn_permanent, bethe_permanent):
        r = method(a)
        assert (r.log_value, r.residual, r.converged) == (0.0, 0.0, True)
        np.testing.assert_array_equal(r.q, np.eye(2))
    assert log_permanent(a) == 0.0
    # the empty matrix has no blocks either: its permanent, 1, is exact
    empty = np.zeros((0, 0))
    for method in (sinkhorn_scale, sinkhorn_permanent, scaled_sinkhorn_permanent, bethe_permanent):
        r = method(empty)
        assert (r.log_value, r.iterations, r.residual, r.converged, r.q.shape) == (0.0, 0, 0.0, True, (0, 0))
    assert log_permanent(empty) == 0.0 and permanent_naive(empty) == 1.0


def test_sinkhorn_flags_nonconvergence_on_ill_conditioned_input(monkeypatch):
    # one block, but entries 200 orders of magnitude apart: the residual
    # falls like 1/sweeps (the default cap runs all 100 000 sweeps)
    monkeypatch.setattr(approx, "SINKHORN_MAX_ITER", 500)
    report = scaled_sinkhorn_permanent(ILL_CONDITIONED)
    assert not report.converged
    assert report.iterations == 500
    assert report.residual == pytest.approx(1e-3, rel=1e-2)


def test_sinkhorn_folds_diverging_scalers_into_the_log_domain(monkeypatch):
    # scalers leaving [0.999, 1/0.999] are folded into the log domain, which
    # must change neither the sweep counts nor the iterates beyond rounding
    # (their row and column sums are all outside that range as well, so each
    # of the matrices starts with a log-domain sweep)
    monkeypatch.setattr(approx, "_SCALER_MIN", 0.999)
    halves = _counting_logsumexp(monkeypatch)
    matrices = _check_against_log_domain_reference()
    folds = len(halves) // 2 - matrices
    assert folds > 150  # 193 on these 62 matrices with OpenBLAS on x86-64


def _counting_logsumexp(monkeypatch) -> list:
    """Patch approx's log-sum-exp to record each call's axis; a log-domain sweep takes two."""
    halves = []

    def counting(x, axis):
        halves.append(axis)
        return permanent.logsumexp(x, axis)

    monkeypatch.setattr(approx, "logsumexp", counting)
    return halves


def test_sinkhorn_starts_linear_when_the_marginals_are_in_range(monkeypatch):
    # row and column sums within [_SCALER_MIN, 1/_SCALER_MIN]: the first
    # sweep is linear on A itself and no sweep needs a log-sum-exp
    halves = _counting_logsumexp(monkeypatch)
    matrices = _perm_workload_matrices() + [np.random.default_rng(0).uniform(size=(1000, 1000))]
    for a in matrices:
        assert sinkhorn_scale(a).residual <= approx.SINKHORN_TOL
    assert halves == []


def _log_domain_starts():
    rng = np.random.default_rng(13)
    a = rng.uniform(0.1, 1.0, (6, 6))
    subnormal_row, tiny_column, large, huge_row = a.copy(), a.copy(), 1e150 * a, a.copy()
    subnormal_row[2] = 1e-310
    tiny_column[:, 4] = 1e-300
    huge_row[1] *= 1e300
    return [subnormal_row, tiny_column, large, huge_row]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the subnormal row's scaling is about 1e310
@pytest.mark.parametrize(
    "case", range(4), ids=["subnormal_row", "tiny_column", "times_1e150", "row_times_1e300"]
)
def test_sinkhorn_starts_in_the_log_domain_on_out_of_range_marginals(monkeypatch, case):
    a = _log_domain_starts()[case]
    halves = _counting_logsumexp(monkeypatch)
    monkeypatch.setattr(approx, "SINKHORN_MAX_ITER", 1)
    sinkhorn_scale(a)
    assert halves == [1, 0]
    monkeypatch.undo()
    w = sinkhorn_scale(a)
    assert np.all(np.isfinite(w.q)) and w.residual <= approx.SINKHORN_TOL
    _assert_diagonal_scaling(w.q, a)
    q, sweeps = _log_domain_sinkhorn(a)
    assert w.iterations == sweeps
    np.testing.assert_allclose(w.q, q, rtol=0, atol=1e-12)


def test_sinkhorn_preserves_equal_columns():
    m, counts = k_distinct_column_matrix(6, 2, seed=3)
    q = sinkhorn_scale(m).q
    split = counts[0]
    for j in range(1, split):
        np.testing.assert_array_equal(q[:, j], q[:, 0])
    for j in range(split + 1, 6):
        np.testing.assert_array_equal(q[:, j], q[:, split])


def _log_domain_sinkhorn(a):
    """Reference: every sweep as two log-sum-exps and an exp over all N^2 entries."""
    with np.errstate(divide="ignore"):
        loga = np.log(a)
    logr = np.zeros(a.shape[0])
    for it in range(1, approx.SINKHORN_MAX_ITER + 1):
        logl = -logsumexp(loga + logr[None, :], axis=1)
        logr = -logsumexp(loga + logl[:, None], axis=0)
        q = np.exp(logl[:, None] + loga + logr[None, :])
        residual = max(np.abs(q.sum(axis=1) - 1.0).max(), np.abs(q.sum(axis=0) - 1.0).max())
        if residual <= approx.SINKHORN_TOL:
            break
    return q, it


def _perm_workload_matrices():
    # the benchmark's `perm` inputs: k-distinct columns from seed 2014, block-ones
    draw = np.random.default_rng(2014)
    kdistinct = {10: 2, 12: 2, 14: 3, 16: 3, 20: 3, 24: 3, 30: 4, 36: 4, 48: 4}
    mats = [k_distinct_column_matrix(n, k, int(draw.integers(1 << 31)))[0] for n, k in kdistinct.items()]
    return mats + [block_ones_matrix(n, k) for n, k in ((12, 2), (36, 5), (60, 5))]


def _cubes():
    rng = np.random.default_rng(7)
    return [rng.uniform(0, 1, (n, n)) ** 3 for n in rng.integers(2, 31, size=50)]


def _check_against_log_domain_reference() -> int:
    """Compare sinkhorn_scale with the reference; returns the number of matrices."""
    matrices = _perm_workload_matrices() + _cubes()
    for a in matrices:
        w = sinkhorn_scale(a)
        q, sweeps = _log_domain_sinkhorn(a)
        assert w.iterations == sweeps
        np.testing.assert_allclose(w.q, q, rtol=0, atol=1e-12)
        assert w.residual <= approx.SINKHORN_TOL
    return len(matrices)


def test_sinkhorn_matches_log_domain_reference():
    _check_against_log_domain_reference()


def _badly_scaled():
    """A = D1 K D2 with diagonals of 10^(+-150), and K."""
    rng = np.random.default_rng(11)
    k = rng.uniform(0.1, 1.0, (30, 30))
    return 10.0 ** rng.uniform(-150, 150, 30)[:, None] * k * 10.0 ** rng.uniform(-150, 150, 30)[None, :], k


def test_sinkhorn_on_badly_scaled_input():
    # A = D1 K D2 has K's doubly stochastic scaling; the first, log-domain
    # sweep takes the diagonals into the scalings without overflow
    a, k = _badly_scaled()
    w = sinkhorn_scale(a)
    assert w.residual <= approx.SINKHORN_TOL
    np.testing.assert_allclose(w.q, sinkhorn_scale(k).q, rtol=0, atol=1e-12)
    _assert_diagonal_scaling(w.q, a)


def test_sinkhorn_value_is_read_from_the_scalings(monkeypatch):
    # one report: sinkhorn_scale's is sinkhorn_permanent's, and its value is
    # U(A, q) at the q it returns, converged or not
    matrices = [
        *_perm_workload_matrices(),
        *_cubes(),
        *_random_sparse_matrices_with_a_matching(),
        _badly_scaled()[0],
        *_log_domain_starts(),
        ILL_CONDITIONED,
    ]
    for a in matrices:
        if a is ILL_CONDITIONED:
            monkeypatch.setattr(approx, "SINKHORN_MAX_ITER", 500)
        r, s = sinkhorn_permanent(a), sinkhorn_scale(a)
        u = approx._u_value(approx._log_entries(a), r.q)
        assert abs(r.log_value - u) <= 1e-12 * max(1.0, abs(u))
        assert (s.method, s.log_value, s.q.tobytes(), s.iterations, s.residual, s.converged) == (
            r.method, r.log_value, r.q.tobytes(), r.iterations, r.residual, r.converged
        )
    assert len(matrices) == 12 + 50 + 141 + 1 + 4 + 1
    assert not r.converged and r.iterations == 500


def test_scaled_sinkhorn_j2():
    r = scaled_sinkhorn_permanent(J2)
    assert r.log_value == pytest.approx(2 * math.log(2) - 2)
    assert math.exp(r.log_value) == pytest.approx(4 / math.e**2)
    assert r.converged


def test_scaled_sinkhorn_identity():
    r = scaled_sinkhorn_permanent(np.eye(4))
    assert r.log_value == pytest.approx(-4.0)


def test_scaled_sinkhorn_all_ones_family():
    for n in range(2, 7):
        r = scaled_sinkhorn_permanent(np.ones((n, n)))
        assert r.log_value == pytest.approx(n * math.log(n) - n, abs=1e-9)
        assert math.exp(r.log_value) <= math.exp(log_permanent(np.ones((n, n)))) + 1e-9


def test_scaled_sinkhorn_lower_bounds_permanent():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        a = rng.uniform(0.02, 1.0, (n, n))
        assert scaled_sinkhorn_permanent(a).log_value <= log_permanent(a) + 1e-6


def test_report_json():
    r = sinkhorn_permanent(np.eye(3))
    assert r.log_value == pytest.approx(0.0)
    text = r.to_json()
    assert '"method": "sinkhorn"' in text and '"converged": true' in text


def test_bethe_report_counts_its_own_steps():
    a = np.random.default_rng(7).uniform(0, 1, (5, 5)) ** 3
    seen = []
    r = bethe_permanent(a, on_iteration=seen.append)
    obj = json.loads(r.to_json())
    # Sinkhorn takes 43 sweeps to reach the start; the report is Bethe's
    assert r.iterations == len(seen) == obj["iterations"] == 7
    assert r.converged and 0.0 <= r.residual <= BETHE_TOL
    assert obj["residual"] == r.residual
    assert sinkhorn_scale(a).iterations == 43


def test_bethe_starts_from_a_given_sinkhorn_report(monkeypatch):
    # the report's q is the start that Bethe's own scaling reaches: the same
    # report, with no sweep run; a report of another shape is refused
    a = np.random.default_rng(7).uniform(0, 1, (5, 5)) ** 3
    a[0, 1:] = 0.0  # two blocks: the report's q is the scaling of the blocks
    want, sinkhorn, other = bethe_permanent(a), sinkhorn_permanent(a), sinkhorn_permanent(a[1:, 1:])

    def refuse(_):
        raise AssertionError("Sinkhorn's sweeps called")

    monkeypatch.setattr(approx, "_scale", refuse)
    got = bethe_permanent(a, sinkhorn=sinkhorn)
    assert (got.log_value, got.iterations, got.residual, got.converged) == (
        want.log_value, want.iterations, want.residual, want.converged
    )
    np.testing.assert_array_equal(got.q, want.q)
    with pytest.raises(ValueError, match="Sinkhorn report"):
        bethe_permanent(a, sinkhorn=other)


def test_bethe_without_perfect_matching_skips_sinkhorn(monkeypatch):
    # no permutation fits in the support: Sinkhorn would stagnate for all of
    # SINKHORN_MAX_ITER sweeps, so Bethe must answer before calling it
    a = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def refuse(_):
        raise AssertionError("Sinkhorn's sweeps called")

    monkeypatch.setattr(approx, "_scale", refuse)
    r = bethe_permanent(a)
    assert r.log_value == -math.inf
    assert (r.iterations, r.residual, r.converged) == (0, 0.0, True)
    np.testing.assert_array_equal(r.q, np.zeros((3, 3)))


def _random_sparse_matrices():
    # 300 random supports, about half of them with no perfect matching
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        density = rng.uniform(0.2, 0.6)
        yield np.where(rng.uniform(size=(n, n)) < density, rng.uniform(0.1, 1.0, (n, n)), 0.0)


def _random_sparse_matrices_with_a_matching():
    return [a for a in _random_sparse_matrices() if permanent_naive(a) > 0]


def test_one_zero_permanent_rule_on_random_sparse_matrices():
    zero = 0
    for a in _random_sparse_matrices():
        exact = permanent_naive(a)
        assert (support_blocks(a > 0) is not None) == (exact > 0)
        if exact > 0:
            assert log_permanent(a) == pytest.approx(math.log(exact), rel=1e-12)
            continue
        zero += 1
        assert log_permanent(a) == -math.inf
        for method in (sinkhorn_permanent, scaled_sinkhorn_permanent, bethe_permanent):
            r = method(a)
            assert (r.log_value, r.iterations, r.residual, r.converged) == (-math.inf, 0, 0.0, True)
            np.testing.assert_array_equal(r.q, np.zeros_like(a))
        with pytest.raises(ValueError, match="no doubly stochastic scaling"):
            sinkhorn_scale(a)
    assert zero == 159


def test_support_blocks_hold_the_entries_on_perfect_matchings():
    # an entry of the support lies on a perfect matching iff its row and
    # column share a block, that is iff a_ij perm(minor_ij) > 0
    entries = 0
    for a in _random_sparse_matrices_with_a_matching():
        row_labels, col_labels = support_blocks(a > 0)
        for i, j in zip(*np.nonzero(a)):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            assert (row_labels[i] == col_labels[j]) == (permanent_naive(minor) > 0)
            entries += 1
    assert entries == 2523


def _csgraph_blocks(s):
    """The blocks of `support_blocks` from scipy.sparse.csgraph: the strongly
    connected components of support[:, match] for a maximum matching; None
    when it leaves a row unmatched."""
    match = csgraph.maximum_bipartite_matching(csr_matrix(s), perm_type="column")
    if np.any(match < 0):
        return None
    rows = csgraph.connected_components(csr_matrix(s[:, match]), connection="strong")[1]
    cols = np.empty_like(rows)
    cols[match] = rows
    return rows, cols


def _same_blocks(got, want):
    # the row and column labels of both partitions, equal up to relabelling
    pairs = set(zip(np.concatenate(got).tolist(), np.concatenate(want).tolist()))
    return len(pairs) == len(np.unique(np.concatenate(got))) == len(np.unique(np.concatenate(want)))


def _random_supports():
    # zero diagonals, shuffled block diagonals with entries above the blocks
    # and a few removed, and shuffled triangular supports
    rng = np.random.default_rng(11)
    for t in range(300):
        n = int(rng.integers(2, 61))
        if t % 3 == 0:
            s = rng.uniform(size=(n, n)) < rng.uniform(0.02, 0.3)
            np.fill_diagonal(s, False)
        elif t % 3 == 1:
            s = (block_ones_matrix(n, int(rng.integers(1, n + 1))) > 0) | np.triu(rng.uniform(size=(n, n)) < 0.05)
            s &= rng.uniform(size=(n, n)) < 0.9
        else:
            s = np.triu(rng.uniform(size=(n, n)) < 0.5)
            np.fill_diagonal(s, rng.uniform(size=n) < 0.97)
        if t % 3:
            s = s[rng.permutation(n)][:, rng.permutation(n)]
        yield s


def test_support_blocks_match_csgraph():
    counts = {"none": 0, "blocks": 0}
    for s in _random_supports():
        got, want = support_blocks(s), _csgraph_blocks(s)
        assert (got is None) == (want is None)
        if got is not None:
            assert _same_blocks(got, want)
        counts["none" if got is None else "blocks"] += 1
    assert counts == {"none": 150, "blocks": 150}


def test_support_blocks_at_n_1000_in_under_a_second():
    # no recursion (N passes Python's recursion limit) and bounded work on a
    # matching that must be grown, on 1000 singleton blocks and on one block
    rng = np.random.default_rng(12)
    n = 1000
    supports = {
        "shuffled blocks": (block_ones_matrix(n, 10) > 0)[rng.permutation(n)][:, rng.permutation(n)],
        "triangular": np.triu(np.ones((n, n), dtype=bool)),
        "permutation": np.eye(n, dtype=bool)[rng.permutation(n)],
        "ones - eye": ~np.eye(n, dtype=bool),
    }
    for name, s in supports.items():
        start = time.process_time()
        got = support_blocks(s)
        assert time.process_time() - start < 1.0, name
        assert _same_blocks(got, _csgraph_blocks(s)), name
        assert len(np.unique(got[0])) == {"shuffled blocks": 10, "ones - eye": 1}.get(name, n)


def test_sinkhorn_and_bethe_converge_on_random_sparse_matrices():
    # on the whole support Sinkhorn stagnated on 84 of these 141 matrices
    # (every one without total support); on the blocks all converge
    matrices = _random_sparse_matrices_with_a_matching()
    assert len(matrices) == 141
    for a in matrices:
        lp = math.log(permanent_naive(a))
        sk, be = sinkhorn_permanent(a), bethe_permanent(a)
        assert sk.converged and be.converged
        n = a.shape[0]
        assert sk.log_value - n <= be.log_value + 1e-8
        assert be.log_value <= lp + 1e-8
        assert lp <= sk.log_value + 1e-8


def _refuse_assignment(score, support):
    raise AssertionError("an assignment problem was solved")


def test_bethe_gap_bound_is_never_below_the_exact_gap(monkeypatch):
    # weak duality of the assignment LP: the bound Bethe stops on is at least
    # the gap to the assignment vertex, at the returned q and at the last
    # iterate, so the last iterate of a converged report has an exact gap
    # <= BETHE_TOL (the returned q, the best iterate, can come earlier)
    bound_of = approx._gap_bound
    last = []

    def record_last(grad, support, qm):
        last[:] = [grad, support, qm]
        return bound_of(grad, support, qm)

    monkeypatch.setattr(approx, "_gap_bound", record_last)

    def exact_gap(grad, support, qm):
        return float(np.sum(grad * (approx._assignment_vertex(grad, support) - qm)))

    cubes = []
    for seed in range(300):  # the recipe of test_bethe_reports_the_point_of_its_value
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        cubes.append(rng.uniform(0, 1, (n, n)) ** 3)
    for a in cubes + _random_sparse_matrices_with_a_matching():
        r = bethe_permanent(a)
        am = approx._within_blocks(a)[0]
        at_q = [approx._bethe_gradient(approx._log_entries(am), r.q, am > 0), am > 0, r.q]
        slack = 1e-12 * max(1.0, abs(r.log_value))
        for point in (at_q, last):
            assert bound_of(*point) >= exact_gap(*point) - slack
        if r.converged:
            assert exact_gap(*last) <= BETHE_TOL


def test_bethe_certifies_interior_optima_without_an_assignment(monkeypatch):
    # at an interior optimum the gradient is a_i + b_j on the support, where
    # the dual bound is exact: no Frank-Wolfe step, so no assignment solve
    monkeypatch.setattr(approx, "_assignment_vertex", _refuse_assignment)
    for a in _perm_workload_matrices():
        assert bethe_permanent(a).converged


def test_bethe_pins_one_column_per_block():
    # a 1 x 1 block has q = 1 exactly: with one pinned column for the whole
    # matrix its Newton system was singular, and Frank-Wolfe alone ran all
    # BETHE_MAX_ITER steps without a certificate
    a = np.zeros((7, 7))
    a[0, 0] = 1.0
    a[1:, 1:] = np.random.default_rng(3).uniform(0.1, 1, (6, 6))
    start = time.process_time()
    r = bethe_permanent(a)
    assert time.process_time() - start < 1.0
    assert r.converged and r.iterations <= 10
    assert r.log_value == pytest.approx(bethe_permanent(a[1:, 1:]).log_value, abs=1e-8)


def _dense_bethe_newton_direction(qm, support, grad):
    """The step from the full KKT system: N^2 entries and 2N multipliers.

    Stationarity h_ij d_ij + a_i + b_j = -g_ij on the support with
    h = -1/q + 1/(1 - q), d = 0 off it, and the row and column sums of
    q + d equal to 1.  The multipliers are free up to a shift per block, so
    the system is solved by least squares; d is unique.
    """
    n = len(qm)
    q = np.clip(qm, approx._TINY, 1.0 - 1e-16)
    h = -1.0 / q + 1.0 / (1.0 - q)
    kkt = np.zeros((n * n + 2 * n, n * n + 2 * n))
    rhs = np.zeros(n * n + 2 * n)
    for i in range(n):
        for j in range(n):
            e = i * n + j
            if support[i, j]:
                kkt[e, [e, n * n + i, n * n + n + j]] = h[i, j], 1.0, 1.0
                rhs[e] = -grad[i, j]
            else:
                kkt[e, e] = 1.0
            kkt[n * n + i, e] = kkt[n * n + n + j, e] = 1.0
    rhs[n * n :] = np.concatenate([1.0 - qm.sum(axis=1), 1.0 - qm.sum(axis=0)])
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][: n * n].reshape(n, n)


def _newton_step_cases():
    rng = np.random.default_rng(17)
    supports = []
    while len(supports) < 6:  # one-block random supports
        n = int(rng.integers(3, 7))
        s = (rng.uniform(size=(n, n)) < 0.6) | np.eye(n, dtype=bool)
        if len(np.unique(support_blocks(s)[1])) == 1:
            supports.append(s)
    two_blocks = np.zeros((7, 7), dtype=bool)
    two_blocks[:3, :3] = two_blocks[3:, 3:] = True
    supports.append(two_blocks)
    for s in supports:
        a = np.where(s, rng.uniform(0.1, 1.0, s.shape), 0.0)
        # a point off the polytope, so that the step also corrects the marginals
        qm = np.where(s, sinkhorn_scale(a).q * rng.uniform(0.95, 1.05, s.shape), 0.0)
        grad = np.where(s, rng.normal(size=s.shape), 0.0)
        yield qm, s, grad


def test_bethe_newton_direction_matches_the_dense_kkt_solve():
    cases = 0
    for qm, s, grad in _newton_step_cases():
        col_labels = support_blocks(s)[1]
        free = np.ones(len(s), dtype=bool)  # pin the last column of each block
        free[[np.flatnonzero(col_labels == b)[-1] for b in np.unique(col_labels)]] = False
        got = approx._bethe_newton_direction(qm, s, grad, free)
        want = _dense_bethe_newton_direction(qm, s, grad)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
        cases += 1
    assert cases == 7


def test_assignment_vertex_stays_on_the_support():
    # Bethe's gradient reaches +-700 where q is 1e-300, enough to outweigh a
    # finite off-support cost of its own size: off-support entries must be
    # forbidden outright; (0, 2), (1, 0), (2, 1) is the one permutation that fits
    support = np.array([[1, 0, 1], [1, 0, 0], [0, 1, 1]], dtype=bool)
    score = np.array([[700.0, -700.0, -700.0], [-700.0, -700.0, 0.0], [700.0, -700.0, 700.0]])
    expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(approx._assignment_vertex(score, support), expected)


@pytest.mark.parametrize("method", [sinkhorn_scale, sinkhorn_permanent, bethe_permanent])
def test_non_square_input_raises(method):
    with pytest.raises(ValueError, match="square"):
        method(np.ones((2, 3)))


def test_bethe_j2_tight_case():
    r = bethe_permanent(J2)
    assert abs(math.exp(r.log_value) - 1.0) <= 1e-8
    assert math.exp(log_permanent(J2)) == pytest.approx(2.0)
    # the ratio 2 meets the sqrt(2)^N worst case at N = 2
    assert math.exp(log_permanent(J2)) / math.exp(r.log_value) == pytest.approx(
        math.sqrt(2) ** 2, abs=1e-7
    )


def test_bethe_j2_grid_oracle():
    # F(J2, .) is identically zero on the one-parameter doubly stochastic family
    for t in np.linspace(1e-9, 1 - 1e-9, 1001):
        q = np.array([[t, 1 - t], [1 - t, t]])
        f = functional_u(J2, q) + functional_v(q)
        assert abs(f) <= 1e-12


def test_bethe_identity():
    assert bethe_permanent(np.eye(3)).log_value == pytest.approx(0.0, abs=1e-10)


def test_bethe_j4_symmetric_optimum():
    r = bethe_permanent(np.ones((4, 4)))
    expected = 4 * math.log(4) + 12 * math.log(3 / 4)
    assert r.log_value == pytest.approx(expected, abs=1e-8)
    assert math.exp(r.log_value) == pytest.approx(8.109, abs=1e-3)


def test_bethe_monotone_objective():
    rng = np.random.default_rng(5)
    traj: list[float] = []
    bethe_permanent(rng.uniform(0.05, 1.0, (6, 6)), on_iteration=traj.append)
    assert all(b >= a for a, b in zip(traj, traj[1:]))


def test_bethe_reports_the_point_of_its_value():
    # log_value is the best objective seen; q must be the point that has it,
    # not the last iterate (they differ on seed 1, n = 7)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        a = rng.uniform(0, 1, (n, n)) ** 3
        r = bethe_permanent(a)
        assert approx._f_value(approx._log_entries(a), r.q) == r.log_value, seed


def test_sandwich_random_matrices():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0.01, 1.0, (n, n))
        ss = scaled_sinkhorn_permanent(a)
        b = bethe_permanent(a)
        assert b.converged
        assert math.exp(ss.log_value) <= math.exp(b.log_value) * (1 + 1e-6)
        assert math.exp(b.log_value) <= math.exp(log_permanent(a)) * (1 + 1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e300, 6e307, 1e308, 1.7e308, "uniform"])
def test_sandwich_near_the_float_maximum(scale):
    # Bethe read log(A / Q), which overflows from 6e307 on this 3 x 3 (1e308
    # gave log_value inf, above log perm = 2129.380), and Sinkhorn's range
    # test warned on row sums past the float maximum
    if scale == "uniform":
        a = np.random.default_rng(0).uniform(0.1, 1, (5, 5)) * 1e307
    else:
        a = np.full((3, 3), scale)
    ss, b, lp = scaled_sinkhorn_permanent(a), bethe_permanent(a), log_permanent(a)
    assert math.isfinite(b.log_value) and b.converged
    assert ss.log_value <= b.log_value <= lp + 1e-8


def test_block_ones_shapes():
    e = block_ones_matrix(4, 2)
    expected = np.zeros((4, 4))
    expected[:2, :2] = 1
    expected[2:, 2:] = 1
    np.testing.assert_array_equal(e, expected)
    np.testing.assert_array_equal(block_ones_matrix(3, 3), np.eye(3))
    rem = block_ones_matrix(5, 2)
    assert rem[4, 4] == 1.0 and rem[4, :4].sum() == 0
    assert math.exp(log_permanent(rem)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        block_ones_matrix(3, 4)


def test_block_ones_bethe_gap():
    e = block_ones_matrix(4, 2)
    assert math.exp(log_permanent(e)) == pytest.approx(4.0)
    assert bethe_permanent(e).log_value == pytest.approx(0.0, abs=1e-8)


def test_bethe_memory_is_quadratic():
    # the Newton step solves for 2N - 1 multipliers: no array of N^4 entries
    a, _ = k_distinct_column_matrix(60, 4, seed=60)
    tracemalloc.start()
    try:
        report = bethe_permanent(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < 10_000_000


def test_lower_bound_gap_growth():
    for n, k in [(6, 2), (12, 3), (10, 2), (15, 3)]:
        e = block_ones_matrix(n, k)
        gap = log_permanent(e) - bethe_permanent(e).log_value
        assert gap >= 0.3 * k * math.log(n // k)
    # at fixed N/k = m the gap is k times the one-block gap, log m! - log of
    # Bethe at the uniform q = J/m, m log m + m(m-1) log(1 - 1/m): linear in
    # k up to N = 10^3
    m = 25
    one_block = math.lgamma(m + 1) - m * math.log(m) - m * (m - 1) * math.log(1 - 1 / m)
    assert one_block == pytest.approx(2.0249063134, abs=1e-10)
    for k in (1, 2, 4, 8, 16, 40):
        e = block_ones_matrix(m * k, k)
        gap = log_permanent(e) - bethe_permanent(e).log_value
        assert gap == pytest.approx(k * one_block, rel=1e-12)
        assert gap >= 0.3 * k * math.log(m)


def _multiplicity_bound(a, axis):
    """sum_c log(c! e^c / c^c) over the multiplicities c of a's distinct columns (axis 1) or rows (axis 0)."""
    c = np.unique(a, axis=axis, return_counts=True)[1]
    return float(np.sum(gammaln(c + 1) + c - c * np.log(c)))


@pytest.mark.parametrize(
    "a, k",
    [
        pytest.param(k_distinct_column_matrix(1000, 3, 0)[0], 3, id="k-distinct-1000-3"),
        pytest.param(k_distinct_column_matrix(200, 4, 0)[0], 4, id="k-distinct-200-4"),
        pytest.param(k_distinct_column_matrix(100, 5, 0)[0], 5, id="k-distinct-100-5"),
        pytest.param(k_distinct_column_matrix(1000, 3, 0)[0].T, 3, id="k-distinct-rows-1000-3"),
        pytest.param(k_distinct_column_matrix(200, 4, 0)[0].T, 4, id="k-distinct-rows-200-4"),
        pytest.param(k_distinct_column_matrix(100, 5, 0)[0].T, 5, id="k-distinct-rows-100-5"),
        pytest.param(block_ones_matrix(100, 4), 4, id="block-ones-100-4"),
        pytest.param(block_ones_matrix(400, 16), 16, id="block-ones-400-16"),
        pytest.param(block_ones_matrix(1000, 10), 10, id="block-ones-1000-10"),
    ],
)
def test_paper_bounds_at_large_n(monkeypatch, a, k):
    # scaled Sinkhorn <= Bethe <= perm, and perm / Bethe <= (N/k)^k, at N = 10^2-10^3;
    # every optimum here is interior, so Bethe certifies with no assignment solved
    monkeypatch.setattr(approx, "_assignment_vertex", _refuse_assignment)
    n = a.shape[0]
    results = []
    for method in (scaled_sinkhorn_permanent, bethe_permanent, log_permanent):
        # the calling thread's CPU: with two BLAS threads on two cores, a
        # helper spin-waiting through Bethe's Newton solves doubles process_time
        start = time.thread_time()
        results.append(method(a))
        assert time.thread_time() - start < 1.0, method.__name__
    scaled, bethe, lp = results
    assert scaled.converged and bethe.converged
    tol = 1e-8 * max(1.0, abs(lp))
    assert scaled.log_value <= bethe.log_value + tol
    assert bethe.log_value <= lp + tol
    assert lp - bethe.log_value <= k * math.log(n / k)
    # perm / scaled Sinkhorn <= e^B, B = min over the column and row sides of
    # sum_c log(c! e^c / c^c) over the multiplicities c, and B <= k log(N/k);
    # block-ones attains B, so the comparison allows 1e-8 relative
    bound = min(_multiplicity_bound(a, 1), _multiplicity_bound(a, 0))
    assert lp - scaled.log_value <= bound * (1 + 1e-8)
    assert bound <= k * math.log(n / k)


def test_k_distinct_column_matrix():
    m, counts = k_distinct_column_matrix(4, 1, seed=0)
    assert np.unique(m, axis=1).shape[1] == 1
    np.testing.assert_array_equal(counts, [4])

    m, counts = k_distinct_column_matrix(6, 2, seed=7)
    assert np.unique(m, axis=1).shape[1] == 2
    assert counts.sum() == 6 and len(counts) == 2

    m, _ = k_distinct_column_matrix(5, 5, seed=1)
    assert np.unique(m, axis=1).shape[1] == 5
    with pytest.raises(ValueError):
        k_distinct_column_matrix(3, 4, seed=0)


def test_column_multiplicity_bound():
    # perm(A) <= scaledsinkhorn(A) * e^N * prod_j phi_j! / phi_j^phi_j
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        m, counts = k_distinct_column_matrix(n, k, seed=int(rng.integers(1 << 30)))
        bound = (
            scaled_sinkhorn_permanent(m).log_value
            + n
            + float(np.sum(gammaln(counts + 1) - counts * np.log(counts)))
        )
        assert log_permanent(m) <= bound + math.log(1 + 1e-5)


def test_bregman_minc_on_sinkhorn_optimum():
    # the doubly stochastic optimum of a k-distinct-column matrix obeys
    # perm(Q) <= prod_j phi_j! / phi_j^phi_j
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        k = min(k, n)
        m, counts = k_distinct_column_matrix(n, k, seed=int(rng.integers(1 << 30)))
        q = sinkhorn_scale(m).q
        bound = float(np.sum(gammaln(counts + 1) - counts * np.log(counts)))
        assert log_permanent(q) <= bound + 1e-9
