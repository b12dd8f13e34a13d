import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from permpml.convex import (
    G_TOL,
    GRID_LEVEL_LIMIT,
    AllocationMatrix,
    DiscretizationSet,
    build_discretization,
    discretize,
    log_g,
    log_g_gradient,
    log_h,
    maximize_log_g,
    pseudo_distribution_of,
)
from permpml.convex import _linear_oracle, _newton_step
from permpml.permanent import log_permanent
from permpml.profiles import Profile, profile_of_sequence, profile_probability_matrix, sample_sequence
from permpml.rounding import round_allocation


def test_build_discretization_n100():
    # direct-iteration oracle: divide by 1+eps until <= 1/(2 n^2)
    n = 100
    eps = math.log(n) / math.sqrt(n)
    vals = [1.0]
    while vals[-1] > 1 / (2 * n * n):
        vals.append(vals[-1] / (1 + eps))
    grid = build_discretization(n)
    assert grid.eps == pytest.approx(eps)
    assert len(grid) == len(vals) == 28
    np.testing.assert_allclose(grid.values, vals, rtol=1e-15)


def test_build_discretization_small_and_variants():
    grid = build_discretization(4)
    assert grid.values[-1] <= 1 / 32 and grid.values[0] == 1.0
    with pytest.raises(ValueError):
        build_discretization(1)


def test_build_discretization_refuses_a_huge_n():
    # about 2 sqrt(n) levels, counted before any is built: n = 10^6 (2066
    # levels) and 23 922 538 (10^4) stay inside the limit, one more is past
    # it, and n = 10^16 (2 * 10^8 levels, several GB), 10^400 (past float
    # range) and 10^700 (eps underflows) are refused at once, with nothing
    # of the grid's size allocated
    assert len(build_discretization(10**6)) == 2066
    assert len(build_discretization(23_922_538)) == GRID_LEVEL_LIMIT
    with pytest.raises(ValueError, match="n = 10\\^7.4 needs over 10000 levels"):
        build_discretization(23_922_539)
    for n in (10**16, 10**400, 10**700):
        tracemalloc.start()
        start = time.process_time()
        try:
            with pytest.raises(ValueError, match="needs over 10000 levels"):
                build_discretization(n)
            elapsed = time.process_time() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 100_000


def test_discretization_invariants_enforced():
    with pytest.raises(ValueError):
        DiscretizationSet(np.array([1.0, 0.9, 0.5]), eps=0.5, n=2)  # not geometric
    with pytest.raises(ValueError):
        DiscretizationSet(np.array([0.9, 0.6]), eps=0.5, n=2)  # does not start at 1


def test_discretize_examples():
    grid = build_discretization(10)
    on_grid = np.array([grid.values[2], grid.values[3], 0.0])
    np.testing.assert_array_equal(discretize(on_grid, grid), on_grid)

    two = DiscretizationSet(np.array([(1.5) ** (1 - i) for i in range(1, 8)]), 0.5, 2)
    out = discretize(np.array([0.9]), two)
    assert out[0] == pytest.approx(1 / 1.5)

    with pytest.raises(ValueError):
        discretize(np.array([grid.values[-1] / 10]), grid)
    # inputs that are no pseudo-distribution: a NaN entry, a 2-d array
    with pytest.raises(ValueError, match="finite"):
        discretize(np.array([math.nan, 0.5]), grid)
    with pytest.raises(ValueError, match="1-d"):
        discretize(np.array([[0.5, 0.2]]), grid)
    # floor never increases mass
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        p = np.maximum(p, 2 * grid.values[-1])
        p /= p.sum()
        q = discretize(p, grid)
        assert q.sum() <= p.sum() + 1e-15
        assert np.all(q <= p + 1e-15)


def test_log_g_hand_values():
    # single cell: 2 units at level 0.3 under frequency 5
    val = log_g(np.array([[2.0]]), np.array([0.3]), np.array([5.0]))
    assert val == pytest.approx(10 * math.log(0.3))
    assert log_g(np.zeros((3, 2)), np.array([1.0, 0.5, 0.25]), np.array([0.0, 1.0])) == 0.0


def _masked_log_g(entries, levels, col_freqs):
    """log g by 2-D masks over the whole matrix, as the sum is defined."""
    s, r, m = entries, levels, col_freqs
    pos = s > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(m[None, :] == 0, 0.0, m[None, :] * np.log(np.where(r > 0, r, 1.0))[:, None])
        w = np.where((m[None, :] > 0) & (r[:, None] == 0), -np.inf, w)
    total = float(np.sum(s[pos] * w[pos])) if np.any(pos) else 0.0
    total -= float(np.sum(s[pos] * np.log(s[pos])))
    rs = s.sum(axis=1)
    rpos = rs > 0
    return total + float(np.sum(rs[rpos] * np.log(rs[rpos])))


def test_log_g_matches_the_masked_sum():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(40):
        ell, k = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        s = rng.uniform(0, 3, (ell, k + 1)) * (rng.uniform(size=(ell, k + 1)) < 0.6)
        s[rng.integers(0, ell)] = 0.0  # a zero row
        r = np.sort(rng.uniform(1e-6, 1, ell))[::-1]
        cases.append((s, r, np.array([0.0, *np.sort(rng.choice(50, k, replace=False) + 1)])))
    # rounding's outputs: zero-mass rows at level 0 keep their indices
    p = Profile((1, 2, 3), (1, 1, 1))
    trace = round_allocation(maximize_log_g(p, build_discretization(p.n)), 1.0 / math.sqrt(p.n))
    for stage in (trace.stage1, trace.stage2, trace.final):
        assert np.any(stage.levels == 0)
        cases.append((stage.entries, stage.levels, stage.col_freqs))
    # unseen mass on level 0 counts, and 0 log 0 is 0
    cases.append((np.array([[2.0, 0.0], [0.5, 0.0]]), np.array([0.5, 0.0]), np.array([0.0, 3.0])))
    cases.append((np.zeros((3, 2)), np.array([1.0, 0.5, 0.0]), np.array([0.0, 1.0])))
    for s, r, m in cases:
        want = _masked_log_g(s, r, m)
        assert log_g(s, r, m) == pytest.approx(want, rel=1e-14, abs=1e-300)
    # a seen frequency's mass on a level r_i = 0 has probability zero
    s = np.array([[1.0, 1.0], [0.0, 1e-300]])
    r, m = np.array([0.5, 0.0]), np.array([0.0, 2.0])
    assert log_g(s, r, m) == _masked_log_g(s, r, m) == -math.inf


def test_log_g_row_merge_superadditive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        row = rng.uniform(0.1, 2.0, 3)
        levels = np.array([0.5, 0.5])
        m = np.array([0.0, 1.0, 2.0])
        split = np.vstack([row, row])
        merged = np.vstack([2 * row, np.zeros(3)])
        assert log_g(merged, levels, m) >= log_g(split, levels, m) - 1e-12


def test_log_g_concavity():
    rng = np.random.default_rng(2)
    levels = np.array([1.0, 0.4, 0.16])
    m = np.array([0.0, 1.0, 3.0])
    for _ in range(50):
        a = rng.uniform(0.01, 2.0, (3, 3))
        b = rng.uniform(0.01, 2.0, (3, 3))
        lam = rng.uniform(0.05, 0.95)
        mix = log_g(lam * a + (1 - lam) * b, levels, m)
        assert mix >= lam * log_g(a, levels, m) + (1 - lam) * log_g(b, levels, m) - 1e-9


def test_log_h_identity():
    val_g = log_g(np.array([[1.0]]), np.array([0.5]), np.array([2.0]))
    val_h = log_h(np.array([[1.0]]), np.array([0.5]), np.array([2.0]))
    assert val_h == pytest.approx(val_g - 1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = rng.uniform(0.0, 2.0, (4, 3))
        levels = np.array([1.0, 0.5, 0.25, 0.125])
        m = np.array([0.0, 1.0, 2.0])
        cols = s.sum(axis=0)
        expect = log_g(s, levels, m) + float(
            np.sum(cols[cols > 0] * np.log(cols[cols > 0]) - cols[cols > 0])
        )
        assert log_h(s, levels, m) == pytest.approx(expect, abs=1e-12)


def test_h_pointwise_below_log_permanent():
    # every feasible allocation's h value lower-bounds the log permanent
    rng = np.random.default_rng(4)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        grid = build_discretization(6)
        raw = rng.dirichlet(np.ones(d)) * rng.uniform(0.6, 1.0)
        raw = np.maximum(raw, grid.values[-1])
        raw /= max(1.0, raw.sum())
        q = discretize(raw, grid)
        p = Profile((1, 2), (1, 1))
        if d < p.observed:
            continue
        phi0 = d - p.observed
        a = profile_probability_matrix(q, p)
        lp = log_permanent(a)
        levels, counts = np.unique(q, return_counts=True)
        m = np.array([0, *p.freqs], dtype=float)
        phi_full = np.array([phi0, *p.counts], dtype=float)
        for _inner in range(40):
            # random feasible point of the transportation polytope
            s = rng.dirichlet(np.ones(len(levels)), size=len(m)).T * phi_full[None, :]
            # fix row sums by rescaling toward counts: use independent rounding
            rows = s.sum(axis=1)
            s *= (counts / np.maximum(rows, 1e-12))[:, None]
            cols = s.sum(axis=0)
            s *= (phi_full / np.maximum(cols, 1e-12))[None, :]
            if np.abs(s.sum(axis=1) - counts).max() > 1e-6:
                continue
            val = log_h(s, levels, m)
            assert val <= lp + 1e-6


def _pairwise_linear_oracle(grad, r, phi):
    """The certificate's LP by bisection over every pairwise breakpoint.

    F(lam) = lam + sum_j phi_j max_i (grad_ij - lam r_i) breaks where two
    rows tie in a column; the minimum over lam >= lam_floor sits at the
    first breakpoint after which the slope is non-negative, found by
    bisection with each piece's slope taken at its midpoint.  Memory is
    l^2 k / 2.
    """
    g = grad[:, 1:]
    lam_floor = max(0.0, float(np.max(grad[:, 0] / r)))
    upper, lower = np.triu_indices(len(r), 1)
    ties = (g[upper] - g[lower]) / (r[upper] - r[lower])[:, None]
    pts = np.concatenate(([lam_floor], np.unique(ties[ties > lam_floor])))

    def slope(lam):
        return 1.0 - float(phi @ r[np.argmax(g - lam * r[:, None], axis=0)])

    lo, hi = 0, len(pts) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if slope(0.5 * (pts[mid] + pts[mid + 1])) >= 0.0:
            hi = mid
        else:
            lo = mid + 1
    lam = float(pts[lo])
    return lam + float(phi @ np.max(g - lam * r[:, None], axis=0))


def _linprog_oracle(grad, r, phi):
    ell, k = len(r), len(phi)
    nv = ell * (k + 1)
    a_eq = np.zeros((k, nv))
    for j in range(1, k + 1):
        a_eq[j - 1, j :: (k + 1)] = 1.0
    res = linprog(
        -grad.ravel(),
        A_ub=np.repeat(r, k + 1)[None, :],
        b_ub=[1.0],
        A_eq=a_eq,
        b_eq=phi,
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def _oracle_cases(rng):
    """Random certificate inputs, with ties, collinear points and high floors."""
    cases = []
    while len(cases) < 120:
        ell = int(rng.integers(2, 61)) if len(cases) % 3 == 0 else int(rng.integers(2, 9))
        k = int(rng.integers(1, 11)) if len(cases) % 3 == 0 else int(rng.integers(1, 4))
        r = np.sort(rng.uniform(0.01, 1.0, ell))[::-1]
        r[0] = 1.0
        phi = rng.integers(1, 5, k).astype(float)
        if phi.sum() * r.min() > 0.9 or np.any(np.diff(r) == 0):
            continue
        kind = len(cases) % 5
        grad = rng.normal(0, 2, (ell, k + 1))
        if kind == 1:
            # equal rows and integer gradients: many rows tie in a column,
            # and columns share their breakpoints
            grad = np.round(rng.normal(0, 2, (ell, k + 1)))
            grad[rng.integers(0, ell, ell // 2)] = grad[0]
        elif kind == 2:
            # collinear points: every level lies on one line per column
            grad = rng.normal(0, 2, k + 1)[None, :] - rng.uniform(0, 3, k + 1)[None, :] * r[:, None]
        elif kind == 3:
            # concave columns put every level on the hull
            grad = np.log(r)[:, None] * rng.uniform(0, 5, k + 1)[None, :] + rng.normal(0, 1, k + 1)
        elif kind == 4:
            # column 0 raises lam_floor above every breakpoint
            upper, lower = np.triu_indices(ell, 1)
            steepest = np.abs((grad[upper] - grad[lower]) / (r[upper] - r[lower])[:, None]).max()
            grad[:, 0] = (2.0 * steepest + 1.0) * r
        cases.append((grad, r, phi))
    return cases


def test_linear_oracle_matches_linprog():
    for grad, r, phi in _oracle_cases(np.random.default_rng(5)):
        best = _linear_oracle(grad, r, phi)
        want = _linprog_oracle(grad, r, phi)
        assert best == pytest.approx(want, abs=1e-7 * (1 + abs(want)))
        ref = _pairwise_linear_oracle(grad, r, phi)
        assert best == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_linear_oracle_runs_in_bounded_memory_at_n_100000():
    # l = 665 levels and k = 169 observed columns, as a Zipf profile of 10^5
    # draws gives: the pairwise breakpoints would take 3 x 220 110 x 169
    # doubles (890 MB); the hulls hold O(l k).  Concave columns put every
    # level on every hull, the most edges the sweep can see.
    r = build_discretization(100_000).values
    ell, k = len(r), 169
    assert ell == 665
    rng = np.random.default_rng(7)
    grad = np.log(r)[:, None] * np.arange(k + 1)[None, :] - rng.uniform(0, 50, k + 1)[None, :]
    grad[:, 0] = -1.0
    phi = rng.integers(1, 100, k).astype(float)
    start = time.process_time()
    best = _linear_oracle(grad, r, phi)
    assert time.process_time() - start < 2.0
    # tracing every allocation slows the hulls' Python loop several-fold:
    # time and memory are measured in separate runs
    tracemalloc.start()
    try:
        assert _linear_oracle(grad, r, phi) == best
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, peak
    # at most F(lam) at any lam >= lam_floor = 0, at least the value of a
    # feasible point: every column on the lowest level
    lams = np.concatenate(([0.0], np.geomspace(1e-3, 1e13, 100)))
    f = min(lam + float(phi @ np.max(grad[:, 1:] - lam * r[:, None], axis=0)) for lam in lams)
    assert float(phi @ grad[-1, 1:]) <= best <= f + 1e-12 * abs(f)


def test_maximize_log_g_converges_and_is_feasible():
    cases = [((1,), (1,)), ((2,), (1,)), ((1,), (2,)), ((1, 2), (1, 1)), ((1, 3), (2, 1))]
    # a symbol seen >= 11 times takes level 1 with nothing unseen beside it:
    # the dual optimum is not attained (its price runs to -inf)
    cases += [((14,), (1,)), ((2, 18), (1, 1)), ((1, 15), (2, 1))]
    for freqs, counts in cases:
        p = Profile(freqs, counts)
        grid = build_discretization(max(p.n, 2))
        alloc, info = maximize_log_g(p, grid, return_info=True)
        assert info.converged and info.gap <= 1e-8
        assert alloc.is_fractionally_feasible()


def _unattained_profiles():
    # a symbol seen m times sits at level 1 with only a sliver of unseen mass
    # beside it: the sliver is e^{nu}, about 1e-10 at m = 18 and below 1e-16
    # at m = 30, so its price runs to where the column sums no longer see
    # it, and the solve ends at the rounding floor
    yield from (Profile((m,), (1,)) for m in range(2, 31))
    for m in range(11, 21):
        yield Profile((1, m), (2, 1))
        yield Profile((2, m), (1, 1))


def test_maximize_log_g_certifies_unattained_duals_and_rounds():
    for p in _unattained_profiles():
        grid = build_discretization(p.n)
        alloc, info = maximize_log_g(p, grid, return_info=True)
        assert info.converged and info.gap <= G_TOL, (p, info)
        assert alloc.is_fractionally_feasible(), p
        round_allocation(alloc, 1.0 / math.sqrt(p.n))


@pytest.mark.parametrize("n, caps", [(1000, range(1, 6)), (10000, range(1, 13))], ids=["n1000", "n10000"])
def test_maximize_log_g_is_not_certified_at_a_short_step_cap(n, caps):
    # the Zipf profile (seed 1000 + n) cut off after a few Newton steps: the
    # matrix is infeasible and its gap reads -0.69 to -581 at n = 1000 and
    # down to -6663 at n = 10^4, which a flag of gap <= G_TOL took as certified
    q = 1.0 / np.arange(1, n // 2 + 1)
    p = profile_of_sequence(sample_sequence(q / q.sum(), n, np.random.default_rng(1000 + n)))
    grid = build_discretization(n)
    for cap in caps:
        alloc, info = maximize_log_g(p, grid, max_iter=cap, return_info=True)
        assert not info.converged, (cap, info)
        assert not alloc.is_fractionally_feasible(), (cap, info)


def assert_certified(p, grid, alloc, info):
    """The reported gap lies in [-(float error of <grad, S>), G_TOL]."""
    grad = log_g_gradient(alloc.entries, grid.values, alloc.col_freqs)
    terms = grad * alloc.entries
    float_error = math.log2(terms.size) * np.finfo(float).eps * float(np.abs(terms).sum())
    assert info.converged and -float_error <= info.gap <= G_TOL, (p, info, float_error)


@pytest.mark.parametrize(
    "p",
    [
        # a symbol seen 10^4 times puts prices near 1e4 on the gradient: a
        # tie test relative to the score reported a gap of -0.0097 here,
        # while the linear program's exact optimum puts it below 1e-12
        Profile((1, 10000), (3, 1)),
        # 10^4 draws from a Dirichlet source: with the gradient's log term
        # taken as log(rowsum / S_i0), its rounding at levels ~ 1/n^2 moved
        # the mass price enough to report a gap of 1.6e-8
        Profile(
            (*range(1, 20), 22, 23),
            (1095, 729, 552, 355, 200, 134, 89, 68, 42, 25, 17, 6, 8, 6, 5, 5, 3, 2, 2, 1, 1),
        ),
        # eliminating every level row from the Newton step diverged here (100
        # steps, gap 27.5): s_i reaches 0 while t_i / s_i reaches about 1e281
        Profile((1, 3), (2, 1)),
    ],
)
def test_maximize_log_g_certificate_is_exact(p):
    grid = build_discretization(p.n)
    alloc, info = maximize_log_g(p, grid, return_info=True)
    assert_certified(p, grid, alloc, info)


@pytest.mark.parametrize("n", [100, 1000, 3000, 10000])
@pytest.mark.parametrize("source", ["uniform", "zipf", "dirichlet"])
def test_maximize_log_g_certifies_sampled_profiles(source, n):
    # the paper's regime: n draws from a source on n/2 symbols, which gives
    # k up to about sqrt(n) distinct frequencies (Zipf at n = 1000: k = 21-22,
    # at n = 10^4: k = 58-63)
    for seed in range(3):
        rng = np.random.default_rng([n, seed])
        size = n // 2
        if source == "uniform":
            q = np.full(size, 1.0 / size)
        elif source == "zipf":
            q = 1.0 / np.arange(1, size + 1)
            q /= q.sum()
        else:
            q = rng.dirichlet(np.ones(size))
        p = profile_of_sequence(sample_sequence(q, n, rng))
        assert p.n == n and p.k <= 1.5 * math.sqrt(n)
        grid = build_discretization(n)
        start = time.process_time()
        alloc, info = maximize_log_g(p, grid, return_info=True)
        assert time.process_time() - start < 1.0
        assert_certified(p, grid, alloc, info)
        assert alloc.is_fractionally_feasible()
        # the certificate maximizes over mass <= 1: an allocation past it,
        # by even an ulp, can show a negative gap
        assert alloc.mass() <= 1.0
        # the hull sweep finds the pairwise bisection's breakpoint
        grad = log_g_gradient(alloc.entries, grid.values, alloc.col_freqs)
        phi = np.array(p.counts, dtype=float)
        want = _pairwise_linear_oracle(grad, grid.values, phi)
        assert _linear_oracle(grad, grid.values, phi) == pytest.approx(want, rel=1e-12)


def _dense_newton_step(xi, r, phi, t, rd, a, b, c):
    """The same step from the full (k+1+levels)-square KKT system, unknowns (dnu, dlam, dt)."""
    x = xi[:, 1:]
    k, ell = x.shape[1], len(r)
    kkt = np.zeros((k + 1 + ell, k + 1 + ell))
    kkt[:k, :k] = x.T @ (t[:, None] * x) - np.diag(x.T @ t)
    kkt[:k, k + 1 :] = x.T
    kkt[k, k + 1 :] = r
    kkt[k + 1 :, :k] = b[:, None] * x
    kkt[k + 1 :, k] = b * r
    kkt[k + 1 :, k + 1 :] = np.diag(a)
    rhs = np.concatenate([phi - x.T @ t, [1.0 - r @ t], c - b * rd])
    sol = np.linalg.solve(kkt, rhs)
    dnu, dlam, dt = sol[:k], sol[k], sol[k + 1 :]
    return dnu, dlam, dt, rd + r * dlam + x @ dnu


def _random_state(rng, ell, k):
    r = np.geomspace(1.0, 1e-4, ell)
    logits = rng.normal(0.0, 1.0, (ell, k + 1))
    xi = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    t = rng.uniform(0.1, 2.0, ell)
    return xi, r, rng.uniform(0.5, 3.0, k), t, rng.normal(0.0, 0.1, ell), rng.uniform(0.1, 1.0, ell)


@pytest.mark.parametrize("seed", range(6))
def test_newton_step_matches_the_dense_kkt_solve(seed):
    rng = np.random.default_rng(seed)
    ell, k = 12, 3
    xi, r, phi, t, rd, s = _random_state(rng, ell, k)
    cases = [(t, rd, s, t, rng.normal(0.0, 1.0, ell))]
    # rows near the optimal face: slacks down to 1e-300, at t_i / s_i up to
    # about 1e281, which the step keeps in its reduced system
    t_face, s_face = t.copy(), s.copy()
    s_face[:4] = [1e-300, 1e-290, 1e-200, 1e-12]
    t_face[2] = 1e-19
    s_face[2] = 1e-300
    t_face[8:] = [1e-300, 1e-200, 1e-30, 1e-12]
    cases.append((t_face, rd, s_face, t_face, -t_face * s_face + 1e-3))
    # the active-set form: active rows solve their slack equation exactly,
    # inactive rows keep dt = 0
    active = np.zeros(ell, dtype=bool)
    active[rng.choice(ell, k + 1, replace=False)] = True
    t_act = np.where(active, t, 0.0)
    on = active.astype(float)
    cases.append((t_act, 0.0, 1.0 - on, on, -on * s))
    for tt, rdd, a, b, c in cases:
        got = _newton_step(xi, r, phi, tt, rdd, a, b, c)[:4]
        want = _dense_newton_step(xi, r, phi, tt, rdd, a, b, c)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9 * np.abs(w).max())
    dt = _newton_step(xi, r, phi, *cases[-1])[2]
    assert np.all(dt[~active] == 0.0)


def test_newton_step_failures():
    # an exactly singular KKT matrix raises LinAlgError (the solver stops
    # on it), a non-finite one raises ValueError
    r = build_discretization(4).values
    ell = len(r)
    phi = np.array([1.0, 2.0])
    xi = np.zeros((ell, 3))
    xi[:, 0] = 1.0  # observed columns all zero
    t = np.zeros(ell)  # with t = 0 the rows of the column sums vanish
    s = np.ones(ell)
    with pytest.raises(np.linalg.LinAlgError):
        _newton_step(xi, r, phi, t, np.zeros(ell), s, t, -t * s)
    xi = np.full((ell, 3), 1.0 / 3.0)
    xi[1, 2] = np.nan
    t = np.ones(ell)
    with pytest.raises(ValueError):
        _newton_step(xi, r, phi, t, np.zeros(ell), s, t, -t * s)


def test_maximize_log_g_gradient_matches_finite_differences():
    p = Profile((1, 2), (1, 1))
    grid = build_discretization(4)
    rng = np.random.default_rng(6)
    m = np.array([0, *p.freqs], dtype=float)
    for _ in range(5):
        s = rng.uniform(0.05, 1.0, (len(grid), p.k + 1))
        grad = log_g_gradient(s, grid.values, m)
        h = 1e-6
        for _check in range(10):
            i = int(rng.integers(len(grid)))
            j = int(rng.integers(p.k + 1))
            bumped = s.copy()
            bumped[i, j] += h
            dipped = s.copy()
            dipped[i, j] -= h
            fd = (log_g(bumped, grid.values, m) - log_g(dipped, grid.values, m)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5)


def test_maximize_log_g_beats_structured_candidates():
    # every feasible competitor the solver must not lose to
    for freqs, counts in [((1,), (1,)), ((2,), (1,)), ((1,), (2,)), ((1, 2), (1, 1))]:
        p = Profile(freqs, counts)
        grid = build_discretization(max(p.n, 2))
        alloc = maximize_log_g(p, grid)
        best = alloc.log_g()
        r = grid.values
        m = np.array([0, *p.freqs], dtype=float)
        phi = np.array(p.counts, dtype=float)
        # single-level concentrations with greedy unseen fill
        for i in range(len(r)):
            s = np.zeros((len(r), p.k + 1))
            s[i, 1:] = phi
            if float(r @ s.sum(axis=1)) > 1.0:
                continue
            slack = 1.0 - float(r @ s.sum(axis=1))
            for i0 in range(len(r)):
                cand = s.copy()
                cand[i0, 0] = slack / r[i0]
                assert log_g(cand, r, m) <= best + 1e-6


def test_maximize_log_g_iterates_stay_feasible(monkeypatch):
    # every gradient evaluation sees a matrix satisfying the constraints
    import permpml.convex as cv

    p = Profile((1, 2), (1, 1))
    grid = build_discretization(4)
    phi = np.array(p.counts, dtype=float)
    seen = []
    real = cv.log_g_gradient

    def recording(entries, levels, col_freqs):
        seen.append(np.asarray(entries, dtype=float).copy())
        return real(entries, levels, col_freqs)

    monkeypatch.setattr(cv, "log_g_gradient", recording)
    cv.maximize_log_g(p, grid)
    iterate_shapes = [s for s in seen if s.shape == (len(grid), p.k + 1)]
    assert iterate_shapes
    for s in iterate_shapes:
        cols = s[:, 1:].sum(axis=0)
        assert np.abs(cols - phi).max() <= 1e-9
        assert float(grid.values @ s.sum(axis=1)) <= 1 + 1e-9
        assert np.all(s >= 0)


def test_upper_bound_chain_over_grid_distributions():
    # for every discrete pseudo-distribution q on the grid,
    # P(q, phi) <= C_phi * g(S*): the multiplicity bound makes the
    # distinct-column constant collapse to one
    import itertools as it

    from permpml.profiles import log_c_phi, profile_probability_grouped

    for freqs, counts in [((1,), (1,)), ((2,), (1,)), ((1,), (2,)), ((1, 2), (1, 1))]:
        p = Profile(freqs, counts)
        grid = build_discretization(max(p.n, 2))
        alloc = maximize_log_g(p, grid)
        bound = log_c_phi(p) + alloc.log_g()
        vals = grid.values
        for d in range(p.observed, min(5, p.observed + 3) + 1):
            for combo in it.combinations_with_replacement(range(len(vals)), d):
                q = vals[list(combo)]
                if q.sum() > 1.0:
                    continue
                logp = profile_probability_grouped(q, p)
                assert logp <= bound + 1e-6


def test_pseudo_distribution_of():
    p = Profile((1,), (3,))
    alloc = AllocationMatrix(
        np.array([0.3, 0.4]), np.array([[0.0, 2.0], [0.0, 1.0]]), p
    )
    np.testing.assert_allclose(pseudo_distribution_of(alloc), [0.3, 0.3, 0.4])
    empty = AllocationMatrix(np.array([0.4, 0.3]), np.zeros((2, 2)), Profile((1,), (1,)))
    assert len(pseudo_distribution_of(empty)) == 0
    frac = AllocationMatrix(np.array([0.3, 0.4]), np.array([[0.0, 1.5], [0.0, 1.5]]), p)
    with pytest.raises(ValueError):
        pseudo_distribution_of(frac)


def test_allocation_json_round_trip():
    p = Profile((1, 2), (1, 1))
    alloc = AllocationMatrix(
        np.array([1.0, 0.25]), np.array([[0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]), p
    )
    obj = json.loads(alloc.to_json())
    assert obj == {
        "levels": [1.0, 0.25],
        "entries": [[0.5, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "profile": {"freqs": [1, 2], "counts": [1, 1]},
    }
