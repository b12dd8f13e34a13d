"""Exact references the benchmark checks the program against.

Nothing here calls into `permpml`, apart from the self-test, which compares
these references with the package's brute-force oracles at sizes those can
reach.  All sums have positive terms only, so there is no cancellation.
"""

from __future__ import annotations

import math

import numpy as np


def log_perm_repeated_columns(weights, mult) -> float:
    """log perm of the N x N matrix whose column type t repeats mult[t] times.

    `weights` is N x T: row i of the full matrix holds weights[i, t] in each
    of the mult[t] columns of type t.  A DP over the rows whose state is the
    vector of columns of each type used so far; the state space has
    prod(mult[t] + 1) entries, so the reference reaches N far past Ryser as
    long as the number of types stays small.
    """
    w = np.asarray(weights, dtype=float)
    mult = [int(m) for m in mult]
    keep = [t for t, m in enumerate(mult) if m > 0]
    w = w[:, keep]
    mult = [mult[t] for t in keep]
    n_rows, n_types = w.shape
    if sum(mult) != n_rows:
        raise ValueError("multiplicities must sum to the number of rows")
    state = np.zeros([m + 1 for m in mult])
    state[(0,) * n_types] = 1.0
    log_scale = 0.0
    for i in range(n_rows):
        new = np.zeros_like(state)
        for t in range(n_types):
            dst = [slice(None)] * n_types
            src = [slice(None)] * n_types
            dst[t] = slice(1, None)
            src[t] = slice(0, -1)
            new[tuple(dst)] += w[i, t] * state[tuple(src)]
        top = new.max()
        if top == 0.0:
            return -math.inf
        state = new / top
        log_scale += math.log(top)
    total = state[tuple(mult)]
    if total == 0.0:
        return -math.inf
    return math.log(total) + log_scale + sum(math.lgamma(m + 1) for m in mult)


def log_perm_distinct_columns(a, mult) -> float:
    """log perm of a matrix built by repeating distinct columns mult times."""
    a = np.asarray(a, dtype=float)
    starts = np.concatenate(([0], np.cumsum(mult)[:-1])).astype(int)
    return log_perm_repeated_columns(a[:, starts], mult)


def block_sizes(n: int, k: int) -> list[int]:
    """Block sizes of `block_ones_matrix(n, k)`: k blocks of n//k, then the rest."""
    m = n // k
    return [m] * k + ([n - k * m] if n - k * m else [])


def block_ones_closed_forms(sizes) -> dict[str, float]:
    """log perm, log Sinkhorn and log Bethe of a block-diagonal all-ones matrix.

    Each all-ones m x m block contributes log m!, m log m (the doubly
    stochastic optimum is the uniform 1/m matrix), and m log m plus
    m(m-1) log(1 - 1/m) from the V term at that same point.
    """
    perm = sum(math.lgamma(m + 1) for m in sizes)
    sinkhorn = sum(m * math.log(m) for m in sizes)
    bethe = sinkhorn + sum(m * (m - 1) * math.log1p(-1.0 / m) for m in sizes if m > 1)
    return {"perm": perm, "sinkhorn": sinkhorn, "bethe": bethe}


def log_profile_probability(q, freqs, counts) -> float:
    """log P(profile | q): the chance that n draws from q show this profile.

    q is a pseudo-distribution on a domain of len(q) symbols; the symbols not
    observed fill the unseen column.  P = n! / prod_j (m_j!)^phi_j / prod_j
    phi_j! * perm(M), where M repeats the column q^m_j phi_j times.
    """
    q = np.asarray(q, dtype=float)
    col_freqs = [0, *freqs]
    phi = [len(q) - sum(counts), *counts]
    if phi[0] < 0:
        return -math.inf
    n = sum(m * c for m, c in zip(freqs, counts))
    weights = np.power(q[:, None], np.array(col_freqs, dtype=float)[None, :])
    log_c = math.lgamma(n + 1) - sum(c * math.lgamma(m + 1) for m, c in zip(freqs, counts))
    return (
        log_c
        - sum(math.lgamma(c + 1) for c in phi)
        + log_perm_repeated_columns(weights, phi)
    )


def self_test(pm) -> list[str]:
    """Compare the references with the package's exhaustive oracles.

    Returns the names of the comparisons that disagree (empty when all pass).
    """
    failures = []
    rng = np.random.default_rng(20200406)
    for n, k in ((4, 2), (6, 3), (7, 2), (8, 4)):
        a, mult = pm.approx.k_distinct_column_matrix(n, k, int(rng.integers(1 << 30)))
        want = math.log(pm.permanent.permanent_naive(a))
        if abs(log_perm_distinct_columns(a, mult) - want) > 1e-12 * max(1.0, abs(want)):
            failures.append(f"selftest.kdistinct.n{n}.k{k}")
    for n, k in ((6, 2), (7, 3), (8, 1)):
        want = math.log(pm.permanent.permanent_naive(pm.approx.block_ones_matrix(n, k)))
        got = block_ones_closed_forms(block_sizes(n, k))["perm"]
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            failures.append(f"selftest.block.n{n}.k{k}")
    cases = (
        ((1, 2), (2, 1), [0.5, 0.3, 0.2]),
        ((1, 3), (1, 1), [0.4, 0.3, 0.2, 0.1]),
        ((1, 2), (3, 1), [0.25, 0.25, 0.2, 0.2]),
        ((2,), (2,), [0.6, 0.3]),
        ((1,), (5,), [0.2] * 5),
    )
    for freqs, counts, q in cases:
        prof = pm.profiles.Profile(freqs, counts)
        want = pm.profiles.profile_probability_bruteforce(q, prof)
        got = log_profile_probability(q, freqs, counts)
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            failures.append(f"selftest.profile.{freqs}.{counts}")
    return failures
