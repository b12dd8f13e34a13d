import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permpml import convex, rounding
from permpml.convex import (
    AllocationMatrix,
    build_discretization,
    log_g,
    maximize_log_g,
    pseudo_distribution_of,
)
from permpml.profiles import Profile, profile_of_sequence, sample_sequence
from permpml.rounding import (
    _snapped_floor,
    create_new_probability_values,
    round_allocation,
    structured_rounding,
)


def test_structured_rounding_spec_traces():
    z, s = structured_rounding(np.array([0.5, 0.5]), np.array([2.0, 1.0]), 1)
    np.testing.assert_allclose(z, [[0.5, 0.5], [0.0, 0.0]])
    np.testing.assert_array_equal(s, [0])

    z, s = structured_rounding(np.array([0.5, 0.7, 0.8]), np.array([3.0, 2.0, 1.0]), 2)
    np.testing.assert_allclose(z[0], [0.5, 0.5, 0.0])
    np.testing.assert_allclose(z[1], [0.0, 0.2, 0.8])
    np.testing.assert_array_equal(s, [0, 1])


def test_structured_rounding_validation():
    with pytest.raises(ValueError):
        structured_rounding([0.5, 1.2], [1.0, 2.0], 1)
    with pytest.raises(ValueError):
        structured_rounding([0.25, 0.25], [1.0, 2.0], 1)  # sum != a
    z, s = structured_rounding([0.0, 0.0], [1.0, 2.0], 0)
    assert not z.any() and len(s) == 0


def test_structured_rounding_conditions_random():
    rng = np.random.default_rng(42)
    done = 0
    while done < 1000:
        c = int(rng.integers(1, 8))
        x = rng.uniform(0.0, 1.0, c)
        if x.sum() < 1.0:
            continue
        a = int(rng.integers(1, int(x.sum()) + 1))
        x = x * (a / x.sum())
        if np.any(x >= 1.0):
            continue
        w = rng.uniform(0.05, 3.0, c)
        m = rng.integers(0, 6, c)
        z, _ = structured_rounding(x, w, a)
        done += 1
        rs = z.sum(axis=1)
        # condition 1: unit or empty rows, column sums reproduce x
        assert np.all((np.abs(rs) <= 1e-9) | (np.abs(rs - 1.0) <= 1e-9))
        np.testing.assert_allclose(z.sum(axis=0), x, atol=1e-9)
        # condition 2: weighted row masses within one max weight
        assert float(rs @ w) <= float(x @ w) + w.max() + 1e-9
        # condition 3: the weight-product never decreases
        lhs = float(np.sum(m * x * np.log(w)))
        rhs = float(
            sum(
                math.log(w[i]) * m[j] * z[i, j]
                for i in range(c)
                for j in range(c)
                if z[i, j] > 0
            )
        )
        assert lhs <= rhs + 1e-9
        # the sort guarantee behind condition 3: z_ij > 0 implies w_i >= w_j
        for i in range(c):
            for j in range(c):
                if z[i, j] > 1e-12:
                    assert w[i] >= w[j] - 1e-12


def _feasible_alloc(rng, profile, grid):
    alloc = maximize_log_g(profile, grid)
    return alloc


def test_create_new_probability_values():
    p = Profile((1,), (2,))
    b = AllocationMatrix(np.array([0.2, 0.4]), np.array([[0.0, 1.0], [0.0, 1.0]]), p)
    out = create_new_probability_values(b, np.zeros((2, 2)))
    assert out.levels[3] == pytest.approx(0.3)  # weighted mean of the removed mass
    assert out.entries[3, 1] == pytest.approx(2.0)
    np.testing.assert_allclose(out.column_sums(), b.column_sums(), atol=1e-12)

    # c = b: all new rows carry zero mass at value 0
    same = create_new_probability_values(b, b.entries.copy())
    assert np.all(same.entries[2:] == 0) and np.all(same.levels[2:] == 0)

    with pytest.raises(ValueError):
        create_new_probability_values(b, b.entries + 0.5)


def test_create_new_preserves_sums_random():
    rng = np.random.default_rng(7)
    p = Profile((1, 2), (2, 1))
    grid = build_discretization(4)
    for _ in range(50):
        b_entries = rng.uniform(0.0, 1.0, (len(grid), 3))
        b_entries[:, 1:] *= np.array(p.counts) / b_entries[:, 1:].sum(axis=0)
        b_entries /= max(1.0, float(grid.values @ b_entries.sum(axis=1)))
        b_entries[:, 1:] *= np.array(p.counts) / b_entries[:, 1:].sum(axis=0)
        if float(grid.values @ b_entries.sum(axis=1)) > 1:
            continue
        b = AllocationMatrix(grid.values, b_entries, p)
        c = b_entries * rng.uniform(0.0, 1.0, b_entries.shape)
        out = create_new_probability_values(b, c)
        # condition 4: column sums and total entry mass preserved
        np.testing.assert_allclose(out.column_sums(), b.column_sums(), atol=1e-9)
        assert out.entries.sum() == pytest.approx(b.entries.sum(), abs=1e-9)
        # condition 2: appended rows are diagonal
        tail = out.entries[len(grid) :]
        assert np.allclose(tail - np.diag(np.diag(tail)), 0.0)
        # condition 6: new values are the weighted mean levels
        removed = b_entries - c
        for j in range(3):
            tot = removed[:, j].sum()
            if tot > 0:
                assert out.levels[len(grid) + j] == pytest.approx(
                    float(grid.values @ removed[:, j]) / tot
                )
        # mass never increases
        assert out.mass() <= b.mass() + 1e-9


def test_round_allocation_integral_input():
    p = Profile((2,), (1,))
    levels = np.array([1.0, 0.5, 0.25, 0.1])
    entries = np.zeros((4, 2))
    entries[1, 1] = 1.0  # one element at 0.5, all levels > gamma
    alloc = AllocationMatrix(levels, entries, p)
    trace = round_allocation(alloc, gamma=0.05)
    np.testing.assert_allclose(trace.final.levels[:4], levels / 1.05)
    np.testing.assert_allclose(trace.final.entries[:4], entries)
    # only the probability rescale contributes to the loss: n log(1+gamma)
    assert trace.log_g_drops[2] == pytest.approx(2 * math.log(1.05))
    assert trace.log_g_drops[0] == pytest.approx(0.0, abs=1e-12)
    assert trace.log_g_input == alloc.log_g()


def test_round_allocation_single_low_row():
    # one low probability row, unseen column, fractional row sum 1.6
    p = Profile((1,), (1,))
    level = 0.05
    entries = np.array([[1.6, 0.0]])
    alloc = AllocationMatrix(np.array([level]), entries, p)
    # the observed column must still sum to 1: place it at the same low level
    entries[0, 1] = 1.0
    alloc = AllocationMatrix(np.array([level]), entries, p)
    trace = round_allocation(alloc, gamma=0.2)
    final = trace.final
    assert final.has_integral_row_sums()
    np.testing.assert_allclose(final.column_sums()[1:], p.counts, atol=1e-9)
    assert final.mass() <= 1 + 1e-9


def test_round_allocation_structure_random():
    rng = np.random.default_rng(11)
    for seq_profile in [((1,), (1,)), ((1,), (3,)), ((2,), (1,)), ((1, 2), (1, 1)), ((1, 3), (2, 1))]:
        p = Profile(*seq_profile)
        grid = build_discretization(max(p.n, 2))
        alloc = maximize_log_g(p, grid)
        gamma = 1.0 / math.sqrt(max(p.n, 2))
        trace = round_allocation(alloc, gamma)
        ell = len(grid)
        k1 = p.k + 1
        phi = np.array(p.counts, dtype=float)

        for stage in (trace.stage1, trace.stage2, trace.final):
            np.testing.assert_allclose(stage.column_sums()[1:], phi, atol=1e-9)

        # entry mass preserved through stages 1-2 (after the unseen snap)
        assert trace.stage1.entries.sum() == pytest.approx(
            trace.stage2.entries.sum(), abs=1e-9
        )
        # stage-2 appended rows: diagonal, small values, integral total
        tail = trace.stage2.entries[ell + k1 :]
        assert np.allclose(tail - np.diag(np.diag(tail)), 0.0)
        assert np.all(trace.stage2.levels[ell + k1 :] <= gamma + 1e-12)
        tail_total = float(tail.sum())
        assert abs(tail_total - round(tail_total)) <= 1e-9
        # stage-1 high rows have integral row sums
        high1 = trace.stage1.levels > gamma
        rs1 = trace.stage1.row_sums()[high1]
        assert np.all(np.abs(rs1 - np.round(rs1)) <= 1e-9)
        # final: integral row sums, mass within budget
        assert trace.final.has_integral_row_sums()
        assert trace.final.mass() <= 1 + 1e-9
        q = pseudo_distribution_of(trace.final)
        assert q.sum() <= 1 + 1e-9


def test_round_allocation_snaps_sums_one_ulp_below_an_integer():
    below_two = np.nextafter(2.0, 0.0)
    # stage 1: a low-row column total one ulp below 2 is not floored to 1
    p = Profile((1,), (2,))
    alloc = AllocationMatrix(np.array([0.1]), np.array([[0.0, below_two]]), p)
    trace = round_allocation(alloc, gamma=0.2)
    assert trace.stage1.entries[1:].sum() == 0.0  # no mass moved to a new value
    # a total snapped up from 1e-10 below 46 keeps its entries as they are
    p = Profile((1,), (46,))
    entries = np.array([[0.0, 23.0], [0.0, 23.0 - 1e-10]])
    trace = round_allocation(AllocationMatrix(np.array([0.01, 0.005]), entries, p), gamma=0.2)
    np.testing.assert_array_equal(trace.stage1.entries[:2], entries)
    assert trace.stage1.entries[2:].sum() == 0.0
    # stage 2: a row sum one ulp below 1 is not floored to 0
    p = Profile((1, 2), (1, 1))
    row = np.array([0.0, 0.7, np.nextafter(1.0, 0.0) - 0.7])
    entries = np.array([row, [0.0, 1.0 - row[1], 1.0 - row[2]]])
    assert entries[0].sum() < 1.0
    alloc = AllocationMatrix(np.array([0.1, 0.05]), entries, p)
    trace = round_allocation(alloc, gamma=0.2)
    assert trace.stage2.entries[len(trace.stage1.levels) :].sum() == 0.0
    for stage in (trace.stage1, trace.stage2, trace.final):
        np.testing.assert_allclose(stage.column_sums()[1:], p.counts, atol=1e-9)


def test_snapped_floor_one_ulp_below_a_large_integer():
    # past about 8.4e6 one ulp exceeds 1e-9: an absolute snap floors a sum
    # one ulp below an integer and drops a whole symbol
    below = np.nextafter(12187690.0, 0.0)
    assert 12187690.0 - below > 1e-9
    assert _snapped_floor(np.array(below)) == 12187690.0
    assert _snapped_floor(np.array([2.5, 12187690.5, np.nextafter(3.0, 0.0)])).tolist() == [2.0, 12187690.0, 3.0]
    # below about 2.8e5 the tolerance stays an absolute 1e-9: mass of
    # 2.6e-8 off a column total of 65 (a dead row's share of the unseen
    # column at n = 300) is not rounding error
    assert _snapped_floor(np.array(1.0 - 2e-9)) == 0.0
    assert _snapped_floor(np.array(65.0 - 2.6e-8)) == 64.0


def test_round_allocation_accepts_a_column_sum_one_ulp_below_a_large_count():
    # past about 8.4e6 one ulp exceeds 1e-9: the feasibility check counts
    # 16 ulps of the multiplicity, as near_integer does
    below = np.nextafter(12187690.0, 0.0)
    alloc = AllocationMatrix(np.array([1e-8]), np.array([[0.0, below]]), Profile((1,), (12187690,)))
    assert alloc.is_fractionally_feasible()
    trace = round_allocation(alloc, 0.5)
    assert trace.final.column_sums()[1:].tolist() == [12187690.0]
    assert trace.final.has_integral_row_sums()
    # a column sum 1e-6 off the count is still infeasible
    off = AllocationMatrix(np.array([1e-8]), np.array([[0.0, 12187690.0 - 1e-6]]), Profile((1,), (12187690,)))
    assert not off.is_fractionally_feasible()


def test_mass_past_the_tolerance_is_refused_at_every_stage():
    # mass 1 + 2.5e-10: past MASS_TOL, the tolerance of
    # profile_probability_grouped, so neither the rounding nor the expansion
    # may pass it on
    alloc = AllocationMatrix(np.array([0.5 + 2.5e-10, 0.5]), np.array([[0.0, 1.0], [0.0, 1.0]]), Profile((1,), (2,)))
    assert alloc.has_integral_row_sums()
    assert not alloc.is_fractionally_feasible()
    with pytest.raises(ValueError, match="feasib"):
        round_allocation(alloc, 0.5)
    with pytest.raises(ValueError, match="mass exceeds 1"):
        pseudo_distribution_of(alloc)


def test_round_allocation_at_n_10000():
    # 10^4 draws from a Zipf source on 5000 symbols (k = 57): the fractional
    # parts that stage 3 hands to structured rounding summed to 6 + 1.1e-9,
    # past its 1e-9 check
    n = 10_000
    rng = np.random.default_rng([n, 2, 7])
    q = 1.0 / np.arange(1, n // 2 + 1)
    p = profile_of_sequence(sample_sequence(q / q.sum(), n, rng))
    assert p.k == 57
    trace = round_allocation(maximize_log_g(p, build_discretization(n)), 1.0 / math.sqrt(n))
    np.testing.assert_allclose(trace.final.column_sums()[1:], p.counts, atol=1e-9)
    assert trace.final.has_integral_row_sums()
    assert pseudo_distribution_of(trace.final).sum() <= 1 + 1e-9


def test_round_allocation_at_n_10000_one_blas_thread():
    # how the row sums near 1.2e7 round depends on how BLAS splits the
    # products; on one thread one landed 2e-9 (one ulp) off an integer
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    test = f"{Path(__file__).name}::test_round_allocation_at_n_10000"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=Path(__file__).parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


def test_round_allocation_validation():
    p = Profile((1,), (1,))
    alloc = AllocationMatrix(np.array([0.5]), np.array([[0.0, 1.0]]), p)
    with pytest.raises(ValueError):
        round_allocation(alloc, gamma=0.0)
    with pytest.raises(ValueError):
        round_allocation(alloc, gamma=1.0)
    bad = AllocationMatrix(np.array([0.5]), np.array([[0.0, 2.0]]), p)
    with pytest.raises(ValueError):
        round_allocation(bad, gamma=0.5)


def test_rounding_trace_json():
    p = Profile((1,), (2,))
    grid = build_discretization(2)
    alloc = maximize_log_g(p, grid)
    trace = round_allocation(alloc, 0.5)
    obj = json.loads(trace.to_json())
    assert set(obj) == {"gamma", "log_g_drops", "stage1", "stage2", "final"}
    # degenerate zero rows are pruned from the serialized record
    assert all(
        lv > 0 or sum(row) > 0
        for lv, row in zip(obj["final"]["levels"], obj["final"]["entries"])
    )


def test_log_g_drops_are_computed_from_the_stages(monkeypatch):
    # round_allocation evaluates log g once, on its input; the drops are the
    # differences of log g over the stages, computed when they are read
    calls = []
    for module in (convex, rounding):
        monkeypatch.setattr(module, "log_g", lambda *a, f=module.log_g: calls.append(1) or f(*a))
    for seq, n in [("aabbbc", 6), ("abcdeabcaa", 10)]:
        p = profile_of_sequence(seq)
        alloc = maximize_log_g(p, build_discretization(n))
        calls.clear()
        trace = round_allocation(alloc, 1.0 / math.sqrt(n))
        assert len(calls) == 1
        g = [alloc.log_g(), trace.stage1.log_g(), trace.stage2.log_g(), trace.final.log_g()]
        assert trace.log_g_input == g[0]
        assert trace.log_g_drops == (g[0] - g[1], g[1] - g[2], g[2] - g[3])
        assert json.loads(trace.to_json())["log_g_drops"] == list(trace.log_g_drops)
