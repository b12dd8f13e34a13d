import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from permpml.permanent import NAIVE_LIMIT, log_permanent, permanent_naive
from permpml.profiles import (
    Profile,
    check_pseudo_distribution,
    log_c_phi,
    profile_of_sequence,
    profile_probability_bruteforce,
    profile_probability_grouped,
    profile_probability_matrix,
    sample_sequence,
)


def log_prefactor(q, p):
    """log C_phi - sum_j log phi_j!, unseen count included: log P(q, phi) less the
    log permanent of profile_probability_matrix(q, p), in the paper's formula."""
    counts = np.array([len(q) - p.observed, *p.counts])
    return log_c_phi(p) - float(np.sum(gammaln(counts + 1)))


def by_permanent(q, p):
    """log P(q, phi) by the paper's formula, with the exact log_permanent."""
    return log_prefactor(q, p) + log_permanent(profile_probability_matrix(q, p))


def partitions(n, maxpart=None):
    """All integer partitions of n, parts non-increasing."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def profile_of_partition(part) -> Profile:
    c = Counter(part)
    freqs = tuple(sorted(c))
    return Profile(freqs, tuple(c[f] for f in freqs))


def test_profile_of_sequence_examples():
    p = profile_of_sequence("abbc")
    assert p.freqs == (1, 2) and p.counts == (2, 1) and p.n == 4
    p = profile_of_sequence("aaaa")
    assert p.freqs == (4,) and p.counts == (1,) and p.n == 4
    p = profile_of_sequence("abcde")
    assert p.freqs == (1,) and p.counts == (5,)
    with pytest.raises(ValueError):
        profile_of_sequence("")


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile((2, 1), (1, 1))  # not increasing
    with pytest.raises(ValueError):
        Profile((0,), (1,))
    with pytest.raises(ValueError):
        Profile((1,), (0,))
    with pytest.raises(ValueError):
        Profile((), ())


def test_profile_stores_python_ints():
    # integral floats (as JSON may write them) and numpy integers are stored
    # as Python ints, so n and the JSON writers see integers
    for p in (
        Profile((1.0, 2.0), (2.0, 1.0)),
        Profile(tuple(np.array([1, 2])), tuple(np.array([2, 1]))),
        Profile.from_json('{"freqs": [1.0, 2.0], "counts": [2.0, 1.0]}'),
    ):
        assert p == Profile((1, 2), (2, 1))
        assert all(type(x) is int for x in p.freqs + p.counts) and type(p.n) is int
        assert p.to_json() == '{"freqs": [1, 2], "counts": [2, 1]}'
    with pytest.raises(ValueError):
        Profile((1.5,), (1,))


def test_profile_json_round_trip():
    p = Profile((1, 3), (2, 1))
    assert Profile.from_json(p.to_json()) == p


def test_log_c_phi():
    assert log_c_phi(Profile((1,), (2,))) == pytest.approx(math.log(2))
    assert log_c_phi(Profile((2,), (1,))) == pytest.approx(0.0)
    assert log_c_phi(Profile((1, 2), (2, 1))) == pytest.approx(math.log(12))


def test_pseudo_distribution_checks():
    check_pseudo_distribution([0.2, 0.3])
    with pytest.raises(ValueError):
        check_pseudo_distribution([0.8, 0.4])
    with pytest.raises(ValueError):
        check_pseudo_distribution([-0.1, 0.5])


def test_profile_probability_matrix_layout():
    p = Profile((1,), (2,))
    m = profile_probability_matrix([0.5, 0.5], p)
    np.testing.assert_allclose(m, np.full((2, 2), 0.5))
    m = profile_probability_matrix([1 / 3], Profile((2,), (1,)))
    np.testing.assert_allclose(m, [[1 / 9]])
    # zero-probability row keeps a 1 in the frequency-0 column (0^0 = 1)
    m = profile_probability_matrix([0.0, 0.5], Profile((2,), (1,)))
    np.testing.assert_allclose(m, [[1.0, 0.0], [1.0, 0.25]])
    with pytest.raises(ValueError):
        profile_probability_matrix([0.5], Profile((1,), (2,)))  # fewer symbols than observed


def test_distinct_columns_at_most_k_plus_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(d))
        seq = sample_sequence(q, int(rng.integers(2, 9)), int(rng.integers(1 << 30)))
        p = profile_of_sequence(seq)
        m = profile_probability_matrix(np.concatenate([q, np.zeros(2)]), p)
        distinct = np.unique(m, axis=1).shape[1]
        assert distinct <= p.k + 1
        assert distinct <= math.isqrt(p.n) + 1 + 1  # k <= sqrt(n) plus unseen


def test_profile_probability_examples():
    p = profile_of_sequence("ab")
    assert profile_probability_grouped([0.5, 0.5], p) == pytest.approx(math.log(0.5))
    assert profile_probability_bruteforce([0.5, 0.5], p) == pytest.approx(math.log(0.5))
    assert profile_probability_grouped([1.0], Profile((3,), (1,))) == pytest.approx(0.0)
    assert profile_probability_bruteforce([1.0, 0.0], Profile((2,), (1,))) == pytest.approx(0.0)
    # sequences aa, bb under (0.6, 0.4)
    assert profile_probability_bruteforce([0.6, 0.4], Profile((2,), (1,))) == pytest.approx(
        math.log(0.52)
    )


def test_exact_matches_bruteforce_and_grouped():
    qs = [0.15, 0.3, 0.5]
    grids = []
    for d in (1, 2, 3):
        for combo in itertools.product(qs, repeat=d):
            if sum(combo) <= 1.0:
                grids.append(np.array(combo))
    grids.append(np.array([0.0, 0.3, 0.5]))  # zero-entry convention case
    count = 0
    for n in range(1, 6):
        for part in partitions(n):
            p = profile_of_partition(part)
            for q in grids:
                brute = profile_probability_bruteforce(q, p)
                grouped = profile_probability_grouped(q, p)
                if p.observed > len(q):  # fewer symbols than observed ones: no square matrix
                    assert brute == -math.inf and grouped == -math.inf
                    continue
                exact = by_permanent(q, p)
                if brute == -math.inf:
                    assert exact == -math.inf and grouped == -math.inf
                else:
                    assert exact == pytest.approx(brute, abs=1e-10)
                    assert grouped == pytest.approx(brute, abs=1e-10)
                count += 1
    assert count > 100


def test_permanent_invariant_under_q_permutation():
    rng = np.random.default_rng(5)
    q = rng.dirichlet(np.ones(4))
    p = Profile((1, 2), (1, 1))
    base = log_permanent(profile_probability_matrix(q, p))
    for _ in range(5):
        perm = rng.permutation(4)
        assert log_permanent(
            profile_probability_matrix(q[perm], p)
        ) == pytest.approx(base, rel=1e-10)


def test_completeness_sums_to_one():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        for n in (2, 4, 5):
            q = rng.dirichlet(np.ones(d))
            total = 0.0
            for part in partitions(n):
                if len(part) > d:
                    continue
                p = profile_of_partition(part)
                total += math.exp(profile_probability_grouped(q, p))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_grouped_handles_large_supports():
    # 40 symbols in 3 value groups: far past the permanent limit
    q = np.concatenate([np.full(10, 0.02), np.full(10, 0.03), np.full(20, 0.01)])
    p = Profile((1, 2), (2, 1))
    val = profile_probability_grouped(q, p)
    assert -math.inf < val < 0.0


def test_grouped_matches_uniform_closed_form():
    # uniform on N symbols: P = C_phi N!/(N - observed)! / prod_j phi_j! / N^n,
    # with log(N!/(N - observed)!) summed term by term; at N = 10^6 a difference
    # of lgammas would cancel digits.  One value is one row type, so every case
    # runs on the row side, and its correction pairs N with the unseen count:
    # where they are close, log(N!/unseen!) is summed term by term there too
    cases = [
        (300, (1, 2, 3, 5), (9, 4, 2, 1)),
        (1000, (1, 2, 3, 4, 7), (20, 6, 3, 2, 1)),
        (10**6, (1, 2, 3), (5, 2, 1)),
        # one value: the row side has 1 state, the column side 31^9
        (300, tuple(range(1, 11)), (30,) * 10),
    ]
    for n_dom, freqs, counts in cases:
        p = Profile(freqs, counts)
        want = (
            log_c_phi(p)
            + math.fsum(math.log(n_dom - s) for s in range(p.observed))
            - sum(gammaln(c + 1) for c in counts)
            - p.n * math.log(n_dom)
        )
        got = profile_probability_grouped(np.full(n_dom, 1.0 / n_dom), p)
        assert got == pytest.approx(want, rel=1e-14)


@st.composite
def few_level_cases(draw):
    n_dom = draw(st.integers(1, NAIVE_LIMIT))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=1, max_size=3))
    level_of = draw(st.lists(st.integers(0, len(values) - 1), min_size=n_dom, max_size=n_dom))
    q = np.array(values)[level_of]
    if q.sum() > 0:
        q *= draw(st.floats(0.3, 1.0)) / q.sum()
    symbol_counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=n_dom))
    return q, profile_of_partition(symbol_counts)


@settings(max_examples=200, deadline=None)
@given(few_level_cases())
def test_grouped_matches_permanent_formula_on_few_levels(case):
    # the permanent formula with every permutation summed exactly: all its
    # terms are positive, so it is accurate to a few ulps on these matrices,
    # whose columns differ by orders of size
    q, p = case
    perm = permanent_naive(profile_probability_matrix(q, p))
    grouped = profile_probability_grouped(q, p)
    exact = by_permanent(q, p)
    if perm == 0.0:
        assert grouped == -math.inf and exact == -math.inf
        return
    want = log_prefactor(q, p) + math.log(perm)
    assert grouped == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))
    assert exact == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


def test_exact_on_levels_orders_of_size_apart():
    # an alternating-sign permanent (Ryser's) cancels every digit here: it
    # gave -15.9 for a log probability of -34.6 (and -inf for others)
    q = np.array([0.5, 0.01, 0.01, 0.01, 0.01, 0.01])
    p = Profile((1, 3, 4), (1, 1, 3))
    want = log_prefactor(q, p) + math.log(permanent_naive(profile_probability_matrix(q, p)))
    assert by_permanent(q, p) == pytest.approx(want, rel=1e-12)
    assert profile_probability_grouped(q, p) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "p, n_values",
    [
        # 31^9 states on the column side, 2^299 on the row side (all values distinct)
        (Profile(tuple(range(1, 11)), (30,) * 10), 300),
        # the unseen column (count 1000) is eliminated: 501^2 states, 2000 shifts each
        (Profile((1, 2), (500, 500)), 2000),
    ],
)
def test_grouped_guard_raises_before_allocating(p, n_values):
    q = np.repeat(np.linspace(1.0, 2.0, n_values), -(-p.observed // n_values))
    q = q / q.sum()
    tracemalloc.start()
    start = time.process_time()
    try:
        with pytest.raises(ValueError, match="grouped evaluation .* the column side"):
            profile_probability_grouped(q, p)
        elapsed = time.process_time() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 20 * q.nbytes + 100_000  # nothing of the size of the state


@pytest.mark.parametrize(
    "p, n_values, want",
    [
        # no unseen symbol: one of the 500-columns is eliminated, 501 states
        (Profile((1, 2), (500, 500)), 1000, -568.2618152306586),
        # no unseen symbol: the 60-column is eliminated, 51 x 41 states
        (Profile((1, 2, 3), (60, 50, 40)), 150, -53.75856198593419),
    ],
    ids=["k2-N1000", "k3-N150"],
)
def test_grouped_eliminates_the_largest_column(p, n_values, want):
    # `want` is the permanent formula's value (log_permanent of the N x N matrix)
    q = np.repeat(np.linspace(1.0, 2.0, n_values), -(-p.observed // n_values))
    q = q / q.sum()
    start = time.process_time()
    got = profile_probability_grouped(q, p)
    assert time.process_time() - start < 0.1
    assert got == pytest.approx(want, rel=1e-12)


def test_sample_sequence():
    assert sample_sequence([1.0], 3, 0) == ["s0", "s0", "s0"]
    seq = sample_sequence([0.5, 0.5], 10_000, 123)
    freq = Counter(seq)["s0"] / 10_000
    assert 0.48 <= freq <= 0.52
    assert sample_sequence([0.5, 0.5], 10_000, 123) == seq  # reproducible
    with pytest.raises(ValueError):
        sample_sequence([0.5, 0.4], 5, 0)
    with pytest.raises(ValueError):
        profile_of_sequence(sample_sequence([1.0], 0, 0))
