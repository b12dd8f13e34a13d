"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammaln

from permpml.approx import (
    bethe_permanent,
    block_ones_matrix,
    k_distinct_column_matrix,
    scaled_sinkhorn_permanent,
    sinkhorn_permanent,
)
from permpml.convex import (
    build_discretization,
    discretize,
    log_g,
    log_g_gradient,
    log_h,
    maximize_log_g,
)
from permpml.estimator import approximate_pml, exact_pml_oracle
from permpml.permanent import log_permanent, permanent_naive
from permpml.profiles import (
    Profile,
    log_c_phi,
    profile_of_sequence,
    profile_probability_bruteforce,
    profile_probability_grouped,
    profile_probability_matrix,
    sample_sequence,
)
from permpml.rounding import (
    create_new_probability_values,
    round_allocation,
    structured_rounding,
)


def partitions(n, maxpart=None):
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


def test_criterion_01_exact_permanent_oracles():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        m = rng.random((n, n))
        a = permanent_naive(m)
        b = math.exp(log_permanent(m))
        rel = abs(a - b) / a
        worst = max(worst, rel)
        assert rel <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: 500 matrices, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_sandwich_inequalities():
    start = time.time()
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0.01, 1.0, (n, n))
        ss = math.exp(scaled_sinkhorn_permanent(a).log_value)
        bp = bethe_permanent(a)
        assert bp.converged
        bval = math.exp(bp.log_value)
        perm = math.exp(log_permanent(a))
        assert ss <= bval * (1 + 1e-6)
        assert bval <= perm * (1 + 1e-6)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: 200 sandwich chains scaledsinkhorn <= bethe <= perm, {elapsed:.1f}s")


def test_criterion_03_tight_2x2_bethe():
    j2 = np.ones((2, 2))
    b = math.exp(bethe_permanent(j2).log_value)
    perm = math.exp(log_permanent(j2))
    assert abs(b - 1.0) <= 1e-8
    assert perm == pytest.approx(2.0)
    assert perm / b == pytest.approx(math.sqrt(2) ** 2, abs=1e-7)
    print(f"\nPASS criterion 3: bethe(J2) = {b:.10f}, perm = 2, ratio meets sqrt(2)^2")


def test_criterion_04_lower_bound_construction():
    e = block_ones_matrix(12, 3)
    lp = log_permanent(e)
    assert lp == pytest.approx(3 * math.log(24), rel=1e-12)
    lb = bethe_permanent(e).log_value
    closed_form = 3 * (4 * math.log(4) + 12 * math.log(3 / 4))
    assert lb == pytest.approx(closed_form, abs=1e-4)
    gap = lp - lb
    assert gap >= 0.3 * 3 * math.log(4)
    print(f"\nPASS criterion 4: log perm {lp:.4f}, log bethe {lb:.4f}, gap {gap:.4f} >= {0.3*3*math.log(4):.4f}")


def test_criterion_05_distinct_column_bound():
    rng = np.random.default_rng(505)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        a, counts = k_distinct_column_matrix(n, k, seed=int(rng.integers(1 << 30)))
        bound = (
            scaled_sinkhorn_permanent(a).log_value
            + n
            + float(np.sum(gammaln(counts + 1) - counts * np.log(counts)))
            + math.log(1 + 1e-5)
        )
        assert log_permanent(a) <= bound
    # far past N = 24, with the sandwich scaled Sinkhorn <= Bethe <= perm <= Sinkhorn
    slack = math.log(1 + 1e-6)
    large = [(24, 2), (24, 4), (30, 3), (36, 3), (36, 4), (60, 5), (100, 4), (150, 3), (200, 3)]
    for n, k in large:
        a, counts = k_distinct_column_matrix(n, k, seed=int(rng.integers(1 << 30)))
        lp = log_permanent(a)
        scaled = scaled_sinkhorn_permanent(a).log_value
        bp = bethe_permanent(a)
        assert bp.converged
        assert lp <= scaled + n + float(np.sum(gammaln(counts + 1) - counts * np.log(counts))) + math.log(1 + 1e-5)
        assert scaled <= bp.log_value + slack
        assert bp.log_value <= lp + slack
        assert lp <= sinkhorn_permanent(a).log_value + slack
    print(
        f"\nPASS criterion 5: {100 + len(large)} distinct-column matrices (N <= 200) satisfy "
        "the multiplicity bound and the sandwich"
    )


def test_criterion_06_profile_probability_equivalence():
    start = time.time()
    base = [0.15, 0.3, 0.5]
    grids = []
    for d in (1, 2, 3):
        for combo in itertools.product(base, repeat=d):
            if sum(combo) <= 1.0:
                grids.append(np.array(combo))
    checked = 0
    for n in range(1, 6):
        for part in partitions(n):
            p = profile_of_partition(part)
            for q in grids:
                if p.observed > len(q):
                    continue
                brute = profile_probability_bruteforce(q, p)
                grouped = profile_probability_grouped(q, p)
                # the paper's formula: C_phi perm(A) / prod_j phi_j!, unseen count included
                counts = np.array([len(q) - p.observed, *p.counts])
                formula = (
                    log_c_phi(p)
                    - float(np.sum(gammaln(counts + 1)))
                    + log_permanent(profile_probability_matrix(q, p))
                )
                if brute == -math.inf:
                    assert grouped == -math.inf and formula == -math.inf
                else:
                    assert grouped == pytest.approx(brute, abs=1e-10)
                    assert formula == pytest.approx(brute, abs=1e-10)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 6: {checked} (profile, q) pairs agree within 1e-10, {elapsed:.1f}s")


def test_criterion_07_discretization_lemma():
    rng = np.random.default_rng(707)
    done = 0
    while done < 50:
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n + 2))
        p_dist = rng.uniform(0.5, 1.0, d)
        p_dist /= p_dist.sum()
        grid = build_discretization(n)
        if p_dist.min() < grid.values[-1]:
            continue
        seq = sample_sequence(p_dist, n, int(rng.integers(1 << 30)))
        prof = profile_of_sequence(seq)
        q = discretize(p_dist, grid)
        lp_p = profile_probability_grouped(p_dist, prof)
        lp_q = profile_probability_grouped(q, prof)
        assert lp_q <= lp_p + 1e-12
        assert lp_q >= lp_p - grid.eps * n - 1e-12
        done += 1
    print("\nPASS criterion 7: 50 instances satisfy P(p) >= P(disc(p)) >= exp(-eps n) P(p) exactly")


def _enumerate_transport(row_units, col_units, ncols, step):
    """Integer-unit matrices with exact row/column sums (dense grid points)."""
    rows = len(row_units)

    def rec(i, remaining_cols, acc):
        if i == rows - 1:
            if all(0 <= c for c in remaining_cols):
                last = remaining_cols
                if sum(last) == row_units[i]:
                    yield acc + [list(last)]
            return
        target = row_units[i]

        def comps(j, left, row):
            if j == ncols - 1:
                if left <= remaining_cols[j]:
                    yield row + [left]
                return
            for v in range(min(left, remaining_cols[j]) + 1):
                yield from comps(j + 1, left - v, row + [v])

        for row in comps(0, target, []):
            yield from rec(
                i + 1, tuple(c - v for c, v in zip(remaining_cols, row)), acc + [row]
            )

    for mat in rec(0, tuple(col_units), []):
        yield np.array(mat, dtype=float) * step


def test_criterion_08_h_sandwich():
    rng = np.random.default_rng(808)
    step = 0.5
    checked = 0
    cases = 0
    for _case in range(60):
        if checked >= 400:
            break
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 7))
        grid = build_discretization(n)
        p_dist = rng.uniform(0.5, 1.0, d)
        p_dist /= p_dist.sum()
        if p_dist.min() < grid.values[-1]:
            continue
        q = discretize(p_dist, grid)
        seq = sample_sequence(p_dist, n, int(rng.integers(1 << 30)))
        prof = profile_of_sequence(seq)
        if prof.observed > d:
            continue
        phi0 = d - prof.observed
        a = profile_probability_matrix(q, prof)
        lp = log_permanent(a)
        levels, counts = np.unique(q, return_counts=True)
        m = np.array([0, *prof.freqs], dtype=float)
        phi_full = [phi0, *prof.counts]
        row_units = [int(round(c / step)) for c in counts]
        col_units = [int(round(c / step)) for c in phi_full]
        cases += 1
        for s in _enumerate_transport(row_units, col_units, len(col_units), step):
            val = log_h(s, levels, m)
            assert val <= lp + 1e-8
            checked += 1
    assert checked > 100
    print(f"\nPASS criterion 8: {checked} dense feasible allocations over {cases} instances satisfy h(S) <= log perm")


def test_criterion_09_convex_solver():
    rng = np.random.default_rng(909)
    # (a) certified gap on every n <= 4 profile
    gaps = []
    for n in range(1, 5):
        for part in partitions(n):
            p = profile_of_partition(part)
            grid = build_discretization(max(p.n, 2))
            alloc, info = maximize_log_g(p, grid, return_info=True)
            assert info.converged and info.gap <= 1e-8
            gaps.append(info.gap)

            # (b) the optimum beats a 0.05-resolution feasible family
            best = alloc.log_g()
            r = grid.values
            m = np.array([0, *p.freqs], dtype=float)
            phi = np.array(p.counts, dtype=float)
            step = 0.05
            # single- and two-level supports per column at 0.05 resolution
            candidates = []
            for i in range(len(r)):
                s = np.zeros((len(r), p.k + 1))
                s[i, 1:] = phi
                candidates.append(s)
            for i, i2 in itertools.combinations(range(len(r)), 2):
                for frac_units in range(1, 20):
                    lam = frac_units * step
                    if lam >= 1.0:
                        break
                    s = np.zeros((len(r), p.k + 1))
                    s[i, 1:] = lam * phi
                    s[i2, 1:] = (1 - lam) * phi
                    candidates.append(s)
            for s in candidates:
                mass = float(r @ s.sum(axis=1))
                if mass > 1.0:
                    continue
                slack = 1.0 - mass
                assert log_g(s, r, m) <= best + 1e-6
                # greedy unseen fill on each level, snapped to 0.05 units
                for i0 in range(len(r)):
                    units = math.floor(slack / r[i0] / step)
                    if units <= 0:
                        continue
                    cand = s.copy()
                    cand[i0, 0] = units * step
                    assert log_g(cand, r, m) <= best + 1e-6
            # random feasible grid-snapped points
            for _ in range(200):
                s = np.zeros((len(r), p.k + 1))
                for j, f in enumerate(phi, start=1):
                    units = int(round(f / step))
                    alloc_rows = rng.integers(0, len(r), units)
                    for row in alloc_rows:
                        s[row, j] += step
                if float(r @ s.sum(axis=1)) > 1.0:
                    continue
                assert log_g(s, r, m) <= best + 1e-6

    # (c) analytic gradient vs central finite differences
    p = Profile((1, 2), (1, 1))
    grid = build_discretization(4)
    m = np.array([0, *p.freqs], dtype=float)
    for _ in range(20):
        s = rng.uniform(0.05, 1.0, (len(grid), p.k + 1))
        g = log_g_gradient(s, grid.values, m)
        i = int(rng.integers(len(grid)))
        j = int(rng.integers(p.k + 1))
        h = 1e-6
        up, dn = s.copy(), s.copy()
        up[i, j] += h
        dn[i, j] -= h
        fd = (log_g(up, grid.values, m) - log_g(dn, grid.values, m)) / (2 * h)
        assert g[i, j] == pytest.approx(fd, rel=1e-5)
    print(f"\nPASS criterion 9: solver certified, max gap {max(gaps):.2e} <= 1e-8, grid family beaten, gradient checked")


def test_criterion_10_rounding_structural_suite():
    start = time.time()
    rng = np.random.default_rng(1010)
    checks = 0

    # Lemma on structured rounding, conditions 1-3 (500 cases)
    while checks < 500:
        c = int(rng.integers(1, 8))
        x = rng.uniform(0.0, 1.0, c)
        if x.sum() < 1.0:
            continue
        a = int(rng.integers(1, int(x.sum()) + 1))
        x = x * (a / x.sum())
        if np.any(x >= 1.0):
            continue
        w = rng.uniform(0.05, 3.0, c)
        mm = rng.integers(0, 6, c)
        z, _ = structured_rounding(x, w, a)
        rs = z.sum(axis=1)
        assert np.all((np.abs(rs) <= 1e-9) | (np.abs(rs - 1.0) <= 1e-9))
        np.testing.assert_allclose(z.sum(axis=0), x, atol=1e-9)
        assert float(rs @ w) <= float(x @ w) + w.max() + 1e-9
        lhs = float(np.sum(mm * x * np.log(w)))
        rhs = float(
            sum(math.log(w[i]) * mm[j] * z[i, j] for i in range(c) for j in range(c) if z[i, j] > 0)
        )
        assert lhs <= rhs + 1e-9
        checks += 1

    # creation of new probability values, conditions 1-4 and 6 (250 cases)
    from permpml.convex import AllocationMatrix

    p = Profile((1, 2), (2, 1))
    grid = build_discretization(4)
    counts = np.array(p.counts, dtype=float)
    floor = int(np.argmin(grid.values))
    floor_mass = grid.values[floor] * counts.sum()
    for _ in range(250):
        # feasible by construction: uniform entries with the observed columns
        # scaled to the counts, a random share of them moved onto the lowest
        # level so that their mass is below 1, and the unseen column scaled
        # into a random part of the mass left
        b_entries = rng.uniform(0.0, 1.0, (len(grid), 3))
        b_entries[:, 1:] *= counts / b_entries[:, 1:].sum(axis=0)
        observed_mass = float(grid.values @ b_entries[:, 1:].sum(axis=1))
        share = rng.uniform(0.0, min(1.0, (1.0 - floor_mass) / (observed_mass - floor_mass)))
        b_entries[:, 1:] *= share
        b_entries[floor, 1:] += (1.0 - share) * counts
        left = 1.0 - float(grid.values @ b_entries[:, 1:].sum(axis=1))
        b_entries[:, 0] *= rng.uniform(0.0, 1.0) * left / float(grid.values @ b_entries[:, 0])
        assert float(grid.values @ b_entries.sum(axis=1)) <= 1.0 + 1e-12
        b = AllocationMatrix(grid.values, b_entries, p)
        c_entries = b_entries * rng.uniform(0.0, 1.0, b_entries.shape)
        out = create_new_probability_values(b, c_entries)
        t = len(grid)
        # condition 1: old rows keep the c values
        np.testing.assert_allclose(out.entries[:t], np.minimum(c_entries, b_entries), atol=1e-12)
        # condition 2: diagonal structure
        tail = out.entries[t:]
        assert np.allclose(tail - np.diag(np.diag(tail)), 0.0)
        # condition 3: new row masses equal the removed column mass
        removed = b_entries - np.minimum(c_entries, b_entries)
        np.testing.assert_allclose(np.diag(tail), removed.sum(axis=0), atol=1e-9)
        # condition 4: membership and total mass preservation
        np.testing.assert_allclose(out.column_sums(), b.column_sums(), atol=1e-9)
        assert out.mass() <= 1 + 1e-9
        assert out.entries.sum() == pytest.approx(b.entries.sum(), abs=1e-9)
        # condition 6: new values are removed-mass weighted means
        for j in range(3):
            tot = removed[:, j].sum()
            if tot > 1e-12:
                assert out.levels[t + j] == pytest.approx(
                    float(grid.values @ removed[:, j]) / tot, abs=1e-9
                )
        checks += 1

    # full rounding: stage lemmas and the final membership (250 cases);
    # one solve per profile, randomized by feasible perturbations
    profiles = [profile_of_partition(part) for n in range(1, 7) for part in partitions(n)]
    solved = {}
    for p in profiles:
        grid = build_discretization(max(p.n, 2))
        solved[p] = (grid, maximize_log_g(p, grid))
    rounded = 0
    while rounded < 250:
        p = profiles[int(rng.integers(len(profiles)))]
        grid, alloc = solved[p]
        # randomly perturb within the feasible set to vary the inputs
        s = alloc.entries * rng.uniform(0.5, 1.0, alloc.entries.shape)
        s[:, 1:] *= np.array(p.counts) / s[:, 1:].sum(axis=0)
        if float(grid.values @ s.sum(axis=1)) > 1:
            continue
        source = AllocationMatrix(grid.values, s, p)
        gamma = float(rng.uniform(0.15, 0.8))
        trace = round_allocation(source, gamma)
        ell = len(grid)
        k1 = p.k + 1
        phi = np.array(p.counts, dtype=float)
        # Lemma step-1: high rows integral; membership; mass preserved
        high1 = trace.stage1.levels > gamma
        rs1 = trace.stage1.row_sums()[high1]
        assert np.all(np.abs(rs1 - np.round(rs1)) <= 1e-9)
        np.testing.assert_allclose(trace.stage1.column_sums()[1:], phi, atol=1e-9)
        assert trace.stage1.mass() <= 1 + 1e-9
        assert trace.stage1.entries.sum() == pytest.approx(trace.stage2.entries.sum(), abs=1e-9)
        # Lemma step-2: all original rows integral; diagonal tail; small values;
        # integral tail total
        rs2 = trace.stage2.row_sums()[: ell + k1]
        assert np.all(np.abs(rs2 - np.round(rs2)) <= 1e-9)
        tail = trace.stage2.entries[ell + k1 :]
        assert np.allclose(tail - np.diag(np.diag(tail)), 0.0)
        assert np.all(trace.stage2.levels[ell + k1 :] <= gamma + 1e-12)
        tail_total = float(tail.sum())
        assert abs(tail_total - round(tail_total)) <= 1e-9
        np.testing.assert_allclose(trace.stage2.column_sums()[1:], phi, atol=1e-9)
        # final membership in the integral set
        assert trace.final.has_integral_row_sums()
        np.testing.assert_allclose(trace.final.column_sums()[1:], phi, atol=1e-9)
        assert trace.final.mass() <= 1 + 1e-9
        rounded += 1
        checks += 1

    elapsed = time.time() - start
    assert checks >= 1000
    assert elapsed < 60.0
    print(f"\nPASS criterion 10: {checks} structural checks across the rounding suite, {elapsed:.1f}s")


def test_criterion_11_end_to_end_pml_quality():
    start = time.time()
    ratios = {}
    for n in range(1, 6):
        for part in partitions(n):
            if len(part) > 4:
                continue
            p = profile_of_partition(part)
            res = approximate_pml(p)
            assert res.log_profile_probability > -math.inf
            _, oracle = exact_pml_oracle(
                p, max_support=min(6, 2 * p.observed), grid_step=0.02
            )
            ratio = math.exp(res.log_profile_probability - oracle)
            ratios[part] = ratio
            assert ratio >= 0.1
    elapsed = time.time() - start
    assert elapsed < 300.0
    lines = ", ".join(f"{k}:{v:.3f}" for k, v in ratios.items())
    print(f"\nPASS criterion 11: ratios vs oracle {lines} ({elapsed:.1f}s)")


def test_criterion_12_measured_rounding_loss():
    worst_c = 0.0
    for n in (6, 10, 14, 17, 20):
        for part in partitions(n):
            if len(part) > 4:
                continue
            p = profile_of_partition(part)
            grid = build_discretization(p.n)
            alloc = maximize_log_g(p, grid)
            gamma = 1.0 / math.sqrt(p.n)
            trace = round_allocation(alloc, gamma)
            drop = alloc.log_g() - trace.final.log_g()
            delta = max(alloc.entries.sum(), len(grid) * p.k)
            budget = (1.0 / gamma + len(grid) + p.k + gamma * p.n) * math.log(delta)
            c_fit = drop / budget
            worst_c = max(worst_c, c_fit)
            assert c_fit <= 10.0
    print(f"\nPASS criterion 12: fitted rounding-loss constant C = {worst_c:.4f} <= 10")
