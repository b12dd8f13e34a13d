import math
import time
import tracemalloc

import numpy as np
import pytest

from permpml import estimator, permanent
from permpml.convex import build_discretization, maximize_log_g
from permpml.estimator import (
    PmlResult,
    approximate_pml,
    estimate_property,
    exact_pml_oracle,
)
from permpml.profiles import (
    Profile,
    log_c_phi,
    profile_of_sequence,
    profile_probability_grouped,
    sample_sequence,
)


def test_single_sample_profile():
    res = approximate_pml(profile_of_sequence("a"))
    assert res.log_profile_probability == pytest.approx(0.0, abs=1e-9)
    assert res.distribution.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.converged


def test_distribution_invariants():
    for seq in ["ab", "aab", "aabb", "abcd"]:
        res = approximate_pml(profile_of_sequence(seq))
        assert res.distribution.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.distribution > 0)
        floor = res.trace.final.levels[res.trace.final.levels > 0].min()
        assert res.distribution.min() >= floor - 1e-15
        assert res.log_profile_probability > -math.inf
        assert res.params["k"] == profile_of_sequence(seq).k
        # the solver's log g, computed once by the rounding
        grid = build_discretization(max(res.params["n"], 2))
        assert res.solver_log_g == maximize_log_g(profile_of_sequence(seq), grid).log_g()


@pytest.mark.parametrize("n", [30, 50])
@pytest.mark.parametrize("source", ["uniform", "zipf", "dirichlet"])
def test_sampled_profiles_evaluate_quickly(source, n):
    # the exact evaluation of the output used to enumerate allocation tables:
    # at n = 50 a rounded output with 9 distinct values did not finish in 100 s
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
        start = time.process_time()
        res = approximate_pml(p)
        assert time.process_time() - start < 1.0
        assert -math.inf < res.log_profile_probability < 0.0


def test_oracle_point_mass():
    q, logp = exact_pml_oracle(Profile((2,), (1,)))
    assert logp == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(q, [1.0])


def test_oracle_distinct_pair():
    # support 2 gives 1/2; larger supports do better for the all-distinct profile
    q, logp = exact_pml_oracle(Profile((1,), (2,)), max_support=2)
    assert logp == pytest.approx(math.log(0.5), abs=1e-12)
    np.testing.assert_allclose(q, [0.5, 0.5])
    # uniform over 4 (P = 0.75) is off the 0.02 grid (50/4 units); the best
    # grid point sits just below it
    _, logp4 = exact_pml_oracle(Profile((1,), (2,)), max_support=4)
    assert math.log(0.74) < logp4 <= math.log(0.75) + 1e-12


def test_oracle_reports_argmax_and_bound():
    p = profile_of_sequence("aabb")
    q, logp = exact_pml_oracle(p, max_support=4)
    assert q.sum() == pytest.approx(1.0)
    # certified lower bound: nothing coarser may beat it
    q2, logp2 = exact_pml_oracle(p, max_support=4, grid_step=0.1)
    assert logp2 <= logp + 1e-12


def test_oracle_guards():
    with pytest.raises(ValueError):
        exact_pml_oracle(Profile((7,), (1,)))
    with pytest.raises(ValueError):
        exact_pml_oracle(Profile((1,), (2,)), max_support=9)
    with pytest.raises(ValueError):
        exact_pml_oracle(Profile((1,), (2,)), grid_step=0.03)
    # units * grid_step must lie within MASS_TOL of 1: 0.1 + 5e-13 would put
    # 5e-12 on a candidate's mass
    for step in (0.0, -0.5, 1.5, math.nan, 0.1 + 5e-13, 0.1 + 5e-11, 0.1 - 5e-11):
        with pytest.raises(ValueError, match="grid_step must lie in .0, 1. and divide 1"):
            exact_pml_oracle(Profile((1,), (2,)), grid_step=step)
    # three symbols seen: no support below three, and no grid coarser than 1/3
    for kwargs in ({"max_support": 2}, {"grid_step": 0.5}):
        with pytest.raises(ValueError, match="3 observed symbols need max_support >= 3"):
            exact_pml_oracle(Profile((1,), (3,)), **kwargs)


def test_oracle_grid_is_the_multiples_of_1_over_units():
    for units in range(1, 51):
        q, _ = exact_pml_oracle(Profile((1,), (1,)), grid_step=1 / units)
        assert np.all(np.round(q * units) * (1 / units) == q)
    # 38 * step is 1 + 1e-12 to the ulp, so the step divides 1; the grid is
    # the multiples of 1/38, whose support-6 candidates weigh 1 + 4.4e-16 at
    # most, and not those of the step, one of which weighs 1 + 1.0003e-12
    q, _ = exact_pml_oracle(Profile((1,), (3,)), grid_step=0.026315789473710525)
    assert q.sum() <= 1.0 + 1e-15
    assert np.all(np.round(q * 38) * (1 / 38) == q)


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _profile_of_counts(counts):
    freqs = sorted(set(counts))
    return Profile(tuple(freqs), tuple(counts.count(f) for f in freqs))


def _oracle_one_by_one(p, grid_step):
    # the oracle's search, one profile_probability_grouped call per candidate
    units = round(1.0 / grid_step)
    best_q, best = None, -math.inf
    for support in range(p.observed, min(6, 2 * p.observed) + 1):
        for part in _partitions(units, units):
            if len(part) != support:
                continue
            q = np.array(part, dtype=float) * grid_step
            val = profile_probability_grouped(q, p)
            if val > best:
                best, best_q = val, q
    return best_q, best


def _small_profiles():
    # the 29 profiles with n <= 6
    return [_profile_of_counts(list(c)) for n in range(1, 7) for c in _partitions(n, n)]


@pytest.mark.parametrize("grid_step", [0.05, 0.1])
def test_oracle_matches_one_by_one_search(grid_step):
    for p in _small_profiles():
        q, best = exact_pml_oracle(p, grid_step=grid_step)
        ref_q, ref_best = _oracle_one_by_one(p, grid_step)
        assert q.tobytes() == ref_q.tobytes()
        assert best == ref_best


@pytest.mark.parametrize("grid_step", [0.1, 0.05, 0.02])
def test_oracle_evaluates_only_candidates_near_the_overall_best(grid_step, monkeypatch):
    # only a candidate within the tie cut of the best score over all support
    # sizes can win, so no other is evaluated exactly
    units = round(1.0 / grid_step)
    evaluated = []

    def counting(q, p):
        evaluated.append(q.copy())
        return profile_probability_grouped(q, p)

    monkeypatch.setattr(estimator, "profile_probability_grouped", counting)
    total = 0
    for p in _small_profiles():
        evaluated.clear()
        exact_pml_oracle(p, grid_step=grid_step)
        total += len(evaluated)
        grids = {}
        for support in range(p.observed, min(6, 2 * p.observed) + 1):
            qs, log_qs = estimator._simplex_grid(units, support)
            if len(qs):
                grids[support] = (qs, estimator._log_probabilities(log_qs, p))
        top = max(scores.max() for _, scores in grids.values())
        cut = top - estimator._TIE_TOL * max(1.0, abs(top))
        for q in evaluated:
            qs, scores = grids[len(q)]
            assert scores[np.all(qs == q, axis=1)].item() >= cut
    # against 90, 93 and 108 when each support size's best was evaluated
    assert total <= {0.1: 36, 0.05: 39, 0.02: 54}[grid_step]


def test_oracle_caches_are_read_only():
    p = Profile((1, 2), (1, 1))
    q, best = exact_pml_oracle(p, grid_step=0.05)
    expected = q.copy()
    q[0] = 0.5
    q2, best2 = exact_pml_oracle(p, grid_step=0.05)
    assert q2.tobytes() == expected.tobytes() and best2 == best
    qs, log_qs = estimator._simplex_grid(20, 3)
    assert estimator._simplex_grid(20, 3)[0] is qs
    a = estimator._assignments((0, 1, 2))
    assert estimator._assignments((0, 1, 2)) is a
    for table in (qs, log_qs, a):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_oracle_refuses_grids_past_the_state_limit():
    # support 6 alone has 378 149 106 candidates at step 0.002: the grid is
    # counted and refused before any of it is built
    p = Profile((1,), (3,))
    tracemalloc.start()
    start = time.process_time()
    try:
        with pytest.raises(ValueError, match="grid_step"):
            exact_pml_oracle(p, grid_step=0.002)
        elapsed = time.process_time() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 10_000_000
    for step in (0.1, 0.05, 0.02):
        exact_pml_oracle(p, grid_step=step)
    # the counts are the grid's sizes, capped one past the limit
    for units in range(13):
        for support in range(1, 7):
            size = sum(1 for part in _partitions(units, units) if len(part) == support)
            assert estimator._grid_size(units, range(support, support + 1)) == size
    assert estimator._grid_size(200, range(5, 6)) == 583_464
    assert estimator._grid_size(200, range(6, 7)) == estimator.GROUPED_STATE_LIMIT + 1
    assert estimator._grid_size(10**9, range(1, 2)) == 1


@pytest.mark.parametrize("grid_step", [0.05, 0.02])
def test_oracle_scores_match_the_evaluator(grid_step):
    # every grid candidate the oracle scores, on every profile with n <= 6
    units = round(1.0 / grid_step)
    for n in range(1, 7):
        for counts in _partitions(n, n):
            p = _profile_of_counts(list(counts))
            for support in range(p.observed, min(6, 2 * p.observed) + 1):
                qs, log_qs = estimator._simplex_grid(units, support)
                if not len(qs):
                    continue
                scores = estimator._log_probabilities(log_qs, p)
                exact = np.array([profile_probability_grouped(q, p) for q in qs])
                # relative to max(1, |exact|), as the oracle's tie tolerance is
                assert np.all(np.abs(scores - exact) <= 1e-14 * np.maximum(1.0, np.abs(exact)))


def test_oracle_scores_in_bounded_memory():
    # 120 assignments per row: unchunked, the score matrix alone takes 192 MB
    p = Profile((1, 2, 3), (1, 1, 1))
    qs = np.random.default_rng(3).dirichlet(np.ones(6), 200_000)
    log_qs = np.log(qs)
    tracemalloc.start()
    try:
        scores = estimator._log_probabilities(log_qs, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64_000_000
    for i in range(0, len(qs), 40_000):
        assert scores[i] == pytest.approx(profile_probability_grouped(qs[i], p), rel=1e-14)


def _sampled_profile(source, n, seed):
    # as test_maximize_log_g_certifies_sampled_profiles samples them: n draws
    # from a source on n/2 symbols
    rng = np.random.default_rng([n, seed])
    size = n // 2
    if source == "uniform":
        q = np.full(size, 1.0 / size)
    elif source == "zipf":
        q = 1.0 / np.arange(1, size + 1)
        q /= q.sum()
    else:
        q = rng.dirichlet(np.ones(size))
    return profile_of_sequence(sample_sequence(q, n, rng))


@pytest.mark.parametrize("source, seed", [("uniform", 0), ("uniform", 1), ("uniform", 2), ("dirichlet", 1), ("dirichlet", 2)])
def test_approximate_pml_is_exact_on_the_row_side_at_n_200(source, seed):
    # the output has 3-7 distinct values: the DP over their counts is small,
    # where the one over the profile's k + 1 column types is past the limits
    p = _sampled_profile(source, 200, seed)
    start = time.process_time()
    res = approximate_pml(p)
    assert time.process_time() - start < 1.0
    assert math.isfinite(res.log_profile_probability)
    values, rho = np.unique(res.distribution, return_counts=True)
    phi = [len(res.distribution) - p.observed, *p.counts]
    log_c = np.log(values)[:, None] * np.array([0, *p.freqs], dtype=float)
    states, work = permanent._dp_size(phi, rho.tolist())
    assert states > permanent.GROUPED_STATE_LIMIT or work > permanent.GROUPED_WORK_LIMIT
    correction = sum(math.lgamma(r + 1) for r in rho) - sum(math.lgamma(f + 1) for f in phi)
    row_side = permanent._log_coefficient_dp(rho.tolist(), log_c.T, phi) + correction
    assert res.log_profile_probability == pytest.approx(log_c_phi(p) + row_side, rel=1e-12)


@pytest.mark.parametrize("source, seed, side", [("zipf", 0, "row"), ("zipf", 1, "column"), ("zipf", 2, "row"), ("dirichlet", 0, "row")])
def test_approximate_pml_past_both_sides_raises_before_allocating(monkeypatch, source, seed, side):
    p = _sampled_profile(source, 200, seed)
    peaks = []

    def traced(q, p):
        tracemalloc.start()
        try:
            return profile_probability_grouped(q, p)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1], q.nbytes))
            tracemalloc.stop()

    monkeypatch.setattr(estimator, "profile_probability_grouped", traced)
    with pytest.raises(ValueError, match=f"grouped evaluation .* on its cheaper side, the {side} side"):
        approximate_pml(p)
    [(peak, nbytes)] = peaks
    assert peak < 20 * nbytes + 100_000  # nothing of the size of the state


def test_end_to_end_ratio_small_profiles():
    for seq, threshold in [("ab", 0.25), ("aab", 0.25), ("aa", 0.25)]:
        p = profile_of_sequence(seq)
        res = approximate_pml(p)
        _, oracle = exact_pml_oracle(p, max_support=min(6, 2 * p.observed))
        assert math.exp(res.log_profile_probability - oracle) >= threshold


def test_normalization_never_decreases_probability():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        q = rng.dirichlet(np.ones(d)) * rng.uniform(0.3, 1.0)
        p = Profile((1, 2), (1, 1))
        if d < p.observed:
            continue
        raw = profile_probability_grouped(q, p)
        normalized = profile_probability_grouped(q / q.sum(), p)
        assert normalized >= raw - 1e-12


def test_property_estimates():
    res = approximate_pml(profile_of_sequence("abcd"))
    # fabricate controlled results for the formula checks
    uniform4 = PmlResult(
        distribution=np.full(4, 0.25),
        log_profile_probability=0.0,
        trace=res.trace,
        solver_log_g=0.0,
        params={"n": 4},
        converged=True,
    )
    assert estimate_property(uniform4, "entropy").value == pytest.approx(math.log(4))
    assert estimate_property(uniform4, "support_size").value == 4
    assert estimate_property(uniform4, "distance_to_uniformity").value == pytest.approx(0.0)

    point = PmlResult(
        distribution=np.array([1.0]),
        log_profile_probability=0.0,
        trace=res.trace,
        solver_log_g=0.0,
        params={"n": 3},
        converged=True,
    )
    assert estimate_property(point, "entropy").value == 0.0
    assert estimate_property(point, "support_size").value == 1
    assert estimate_property(point, "distance_to_uniformity").value == 0.0

    half = PmlResult(
        distribution=np.array([0.5, 0.5]),
        log_profile_probability=0.0,
        trace=res.trace,
        solver_log_g=0.0,
        params={"n": 2},
        converged=True,
    )
    assert estimate_property(half, "support_coverage").value == pytest.approx(1.5)
    with pytest.raises(ValueError):
        estimate_property(half, "gini")


def test_property_invariants_on_pipeline_output():
    res = approximate_pml(profile_of_sequence("aabbc"))
    ent = estimate_property(res, "entropy").value
    sup = estimate_property(res, "support_size").value
    dtu = estimate_property(res, "distance_to_uniformity").value
    assert ent >= 0
    assert sup == int(sup)
    assert 0 <= dtu <= 2


def test_result_json():
    res = approximate_pml(profile_of_sequence("ab"))
    text = res.to_json()
    assert '"distribution"' in text and '"params"' in text
