import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from permpml.convex import (
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
from permpml.convex import _linear_oracle
from permpml.permanent import log_permanent
from permpml.profiles import Profile, profile_of_sequence, profile_probability_matrix, sample_sequence


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
    alt = build_discretization(16, eps=0.25)  # the 1/sqrt(n) reading
    assert alt.eps == 0.25
    assert 1 / 1024 <= alt.values[-1] <= 1 / 512
    with pytest.raises(ValueError):
        build_discretization(1)
    with pytest.raises(ValueError):
        build_discretization(10, eps=1.5)


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
        a = profile_probability_matrix(q, p, phi0)
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


def test_linear_oracle_matches_linprog():
    rng = np.random.default_rng(5)
    tried = 0
    while tried < 60:
        ell = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        r = np.sort(rng.uniform(0.01, 1.0, ell))[::-1]
        r[0] = 1.0
        phi = rng.integers(1, 5, k).astype(float)
        if phi.sum() * r.min() > 0.9:
            continue
        tried += 1
        grad = rng.normal(0, 2, (ell, k + 1))
        d = _linear_oracle(grad, r, phi)
        assert np.all(d >= -1e-12)
        np.testing.assert_allclose(d[:, 1:].sum(axis=0), phi, atol=1e-9)
        assert float(r @ d.sum(axis=1)) <= 1 + 1e-9
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
        assert float(np.sum(grad * d)) == pytest.approx(-res.fun, abs=1e-7 * (1 + abs(res.fun)))


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
        assert alloc.is_fractionally_feasible(1e-9)


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("source", ["uniform", "zipf", "dirichlet"])
def test_maximize_log_g_certifies_sampled_profiles(source, n):
    # the paper's regime: n draws from a source on n/2 symbols, which gives
    # k up to about sqrt(n) distinct frequencies (Zipf at n = 1000: k = 21-22)
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
        assert info.converged and info.gap <= 1e-8, (p, info)
        assert alloc.is_fractionally_feasible(1e-9)


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
                logp = profile_probability_grouped(q, p, d - p.observed)
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
    back = AllocationMatrix.from_json(alloc.to_json())
    np.testing.assert_array_equal(back.entries, alloc.entries)
    np.testing.assert_array_equal(back.levels, alloc.levels)
    assert back.profile == p
