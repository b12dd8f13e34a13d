"""The four workloads: their inputs, their operations and the checks on them.

Each `make_*` function takes the loaded `permpml` package and the seed and
returns a `Workload`.  One round runs every operation once, in an order the
seed fixes; a run repeats whole rounds.  `judge` looks at one round's outputs
(outside the timed region) and returns, per operation, the names of the
checks it failed, plus one quality term per checked output: the log of the
program's value over an exact reference, divided by the problem size (the
sample count n, or the matrix side N).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

# failures that are faults of the program, expected on every run and counted
# as failed operations without making the run incorrect
KNOWN_FAULTS = {"large.certified"}

ORACLE_GRID_STEP = 0.05
ORACLE_MAX_N = 6
LARGE_MAX_ITER = 20
# matrix side N -> number of distinct columns (k-distinct) or of blocks (block-ones)
PERM_KDISTINCT = {10: 2, 12: 2, 14: 3, 16: 3, 20: 3, 24: 3, 30: 4, 36: 4, 48: 4}
PERM_BLOCKS = {12: 2, 36: 5, 60: 5}
RYSER_MAX_N = 16
# the k-distinct matrices are drawn once from this seed: Sinkhorn and Bethe
# iteration counts differ from matrix to matrix, so matrices drawn from
# --seed would move the per-operation times from run to run
PERM_INPUT_SEED = 2014
REL = 1e-9  # agreement demanded of a value and its exact reference
SANDWICH_TOL = 1e-8


@dataclass
class Op:
    key: int  # index of the input the operation works on
    kind: str
    fn: Callable[[], object]


@dataclass
class Workload:
    ops: list[Op]
    judge: Callable[[list], tuple[dict[int, list[str]], list[float]]]
    warmup: Callable[[], object]


def _close(value: float, want: float, rel: float = REL) -> bool:
    return abs(value - want) <= rel * max(1.0, abs(want))


def _profile_from_counts(pm, symbol_counts):
    fof = Counter(int(c) for c in symbol_counts if c > 0)
    freqs = sorted(fof)
    return pm.profiles.Profile(tuple(freqs), tuple(fof[f] for f in freqs))


def _source(kind: str, size: int, rng) -> np.ndarray:
    if kind == "uniform":
        p = np.ones(size)
    elif kind == "zipf":
        p = 1.0 / np.arange(1, size + 1)
    else:
        p = rng.dirichlet(np.ones(size))
    return p / p.sum()


def _sampled_profile(pm, kind: str, n: int, rng):
    """Profile of n draws from a source on n // 2 symbols, and the source."""
    p = _source(kind, max(4, n // 2), rng)
    draws = rng.choice(len(p), size=n, p=p)
    return _profile_from_counts(pm, np.bincount(draws, minlength=len(p))), p


def _shuffled(ops: list[Op], rng) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


class _Memo:
    """Reference values keyed by the exact bytes of the program's output."""

    def __init__(self):
        self._cache = {}

    def log_profile_probability(self, q, prof) -> float:
        key = (np.asarray(q, dtype=float).tobytes(), prof.freqs, prof.counts)
        if key not in self._cache:
            self._cache[key] = ref.log_profile_probability(q, prof.freqs, prof.counts)
        return self._cache[key]


def _check_rounding(final, prof) -> list[str]:
    bad = []
    rows = final.entries.sum(axis=1)
    if np.any(np.abs(rows - np.round(rows)) > 1e-9):
        bad.append("rounding.integral_rows")
    cols = final.entries[:, 1:].sum(axis=0)
    if np.any(np.abs(cols - np.array(prof.counts)) > 1e-9):
        bad.append("rounding.column_sums")
    return bad


def _check_distribution(q, prof) -> list[str]:
    bad = []
    if np.any(q < 0):
        bad.append("pml.nonnegative")
    if abs(float(q.sum()) - 1.0) > 1e-9:
        bad.append("pml.sums_to_one")
    if np.count_nonzero(q) < prof.observed:
        bad.append("pml.support")
    return bad


def _check_pml(res, prof, memo: _Memo) -> list[str]:
    q = res.distribution
    bad = _check_distribution(q, prof)
    if not res.converged:
        bad.append("pml.converged")
    bad += _check_rounding(res.trace.final, prof)
    if not _close(res.log_profile_probability, memo.log_profile_probability(q, prof)):
        bad.append("pml.log_probability")
    return bad


PROPERTIES = ("entropy", "support_size", "support_coverage", "distance_to_uniformity")


def _check_estimates(res, estimates, n: int) -> list[str]:
    pos = res.distribution[res.distribution > 0]
    want = {
        "entropy": -math.fsum(pos * np.log(pos)),
        "support_size": float(len(pos)),
        "support_coverage": math.fsum(1.0 - (1.0 - pos) ** n),
        "distance_to_uniformity": math.fsum(np.abs(pos - 1.0 / len(pos))),
    }
    return [f"estimate.{e.property}" for e in estimates if not _close(e.value, want[e.property], 1e-12)]


# Profiles of Zipf samples at n = 18 and 20 whose rounded PML output has 6
# to 7 distinct values: each evaluation is a deep grouped sum.
PML_DEEP = (
    ((1, 2, 3, 4, 7), (4, 1, 1, 1, 1)),
    ((1, 2, 4, 7), (5, 1, 1, 1)),
    ((1, 2, 3, 8), (3, 2, 1, 1)),
    ((1, 2, 3, 9), (3, 1, 2, 1)),
)
PML_SIZES = (10, 12, 14, 16)
PML_REPLICATES = 3
PML_INPUT_SEED = 2004
SOURCES = ("uniform", "zipf", "dirichlet")


def make_pml(pm, seed: int) -> Workload:
    # the profiles are drawn from a fixed seed: sampled profiles of one size
    # differ several-fold in cost, more than a run can average out
    draw = np.random.default_rng(PML_INPUT_SEED)
    inputs = []  # (profile, source or None)
    for n in PML_SIZES:
        for kind in SOURCES:
            for _ in range(PML_REPLICATES):
                inputs.append(_sampled_profile(pm, kind, n, draw))
    inputs += [(pm.profiles.Profile(f, c), None) for f, c in PML_DEEP]
    rng = np.random.default_rng(seed)

    def op(prof):
        def run():
            res = pm.estimator.approximate_pml(prof)
            return res, [pm.estimator.estimate_property(res, w) for w in PROPERTIES]

        return run

    ops = _shuffled([Op(i, "approximate_pml", op(prof)) for i, (prof, _) in enumerate(inputs)], rng)
    memo = _Memo()
    source_lp = {}

    def judge(outputs):
        failures, quality = {}, []
        for j, (o, out) in enumerate(zip(ops, outputs)):
            prof, src = inputs[o.key]
            res, estimates = out
            failures[j] = _check_pml(res, prof, memo) + _check_estimates(res, estimates, prof.n)
            if src is not None:
                if o.key not in source_lp:
                    source_lp[o.key] = ref.log_profile_probability(src, prof.freqs, prof.counts)
                quality.append((res.log_profile_probability - source_lp[o.key]) / prof.n)
        return failures, quality

    warm = pm.profiles.Profile((1, 2), (2, 1))
    return Workload(ops, judge, lambda: pm.estimator.approximate_pml(warm))


def _partitions(n: int, maximum: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, maximum), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def make_oracle(pm, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    profiles = [
        _profile_from_counts(pm, part)
        for n in range(1, ORACLE_MAX_N + 1)
        for part in _partitions(n, n)
        if len(part) <= 4
    ]

    def pml_op(prof):
        return lambda: pm.estimator.approximate_pml(prof)

    def oracle_op(prof):
        return lambda: pm.estimator.exact_pml_oracle(
            prof, max_support=min(6, 2 * prof.observed), grid_step=ORACLE_GRID_STEP
        )

    ops = []
    for i, prof in enumerate(profiles):
        ops.append(Op(i, "approximate_pml", pml_op(prof)))
        ops.append(Op(i, "exact_pml_oracle", oracle_op(prof)))
    ops = _shuffled(ops, rng)
    memo = _Memo()

    def judge(outputs):
        failures, quality = {}, []
        pml_at, best_at = {}, {}
        for j, (o, out) in enumerate(zip(ops, outputs)):
            prof = profiles[o.key]
            if o.kind == "approximate_pml":
                failures[j] = _check_pml(out, prof, memo)
                pml_at[o.key] = j
                continue
            q, best = out
            bad = _check_distribution(q, prof)
            units = q / ORACLE_GRID_STEP
            if np.any(np.abs(units - np.round(units)) > 1e-9):
                bad.append("oracle.on_grid")
            if not _close(best, memo.log_profile_probability(q, prof)):
                bad.append("oracle.log_probability")
            failures[j] = bad
            best_at[o.key] = best
        for key, j in pml_at.items():
            prof = profiles[key]
            log_ratio = outputs[j].log_profile_probability - best_at[key]
            if log_ratio < math.log(0.1):
                failures[j].append("oracle.ratio")
            quality.append(log_ratio / prof.n)
        return failures, quality

    warm = pm.profiles.Profile((1,), (2,))

    def warmup():
        pm.estimator.approximate_pml(warm)
        pm.estimator.exact_pml_oracle(warm, grid_step=ORACLE_GRID_STEP)

    return Workload(ops, judge, warmup)


# Profiles sampled once per size (fixed seeds, so every run sees the same
# ones): the certify-or-fail outcome of each solve is then the same in every
# run.  k reaches about sqrt(n) at n = 100 and 300.
LARGE_INPUTS = ((100, "uniform", 11), (100, "zipf", 12), (300, "zipf", 13), (1000, "dirichlet", 14))


def make_pml_large(pm, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    inputs = []
    for n, kind, fixed_seed in LARGE_INPUTS:
        prof, _ = _sampled_profile(pm, kind, n, np.random.default_rng(fixed_seed))
        inputs.append(prof)

    def op(prof):
        def run():
            grid = pm.convex.build_discretization(prof.n)
            alloc, info = pm.convex.maximize_log_g(prof, grid, max_iter=LARGE_MAX_ITER, return_info=True)
            trace = pm.rounding.round_allocation(alloc, 1.0 / math.sqrt(prof.n))
            q = pm.convex.pseudo_distribution_of(trace.final)
            return alloc, info, trace, q / q.sum()

        return run

    ops = _shuffled([Op(i, "pipeline", op(prof)) for i, prof in enumerate(inputs)], rng)

    def judge(outputs):
        failures, quality = {}, []
        for j, (o, out) in enumerate(zip(ops, outputs)):
            prof = inputs[o.key]
            alloc, info, trace, q = out
            bad = [] if info.converged else ["large.certified"]
            bad += _check_rounding(trace.final, prof) + _check_distribution(q, prof)
            failures[j] = bad
            quality.append((trace.final.log_g() - alloc.log_g()) / prof.n)
        return failures, quality

    warm = pm.profiles.Profile((1, 2), (2, 1))

    def warmup():
        pm.convex.maximize_log_g(warm, pm.convex.build_discretization(warm.n), max_iter=LARGE_MAX_ITER)

    return Workload(ops, judge, warmup)


def make_perm(pm, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    draw = np.random.default_rng(PERM_INPUT_SEED)
    mats = []  # (matrix, column multiplicities, block sizes or None)
    for n, k in PERM_KDISTINCT.items():
        a, mult = pm.approx.k_distinct_column_matrix(n, k, int(draw.integers(1 << 31)))
        mats.append((a, mult, None))
    for n, k in PERM_BLOCKS.items():
        sizes = ref.block_sizes(n, k)
        mats.append((pm.approx.block_ones_matrix(n, k), np.array(sizes), sizes))

    def call(module, name, a):
        # looked up at call time, so that a traced run reaches the wrapper
        return lambda: getattr(module, name)(a)

    ops = []
    for i, (a, _, _) in enumerate(mats):
        for name in ("sinkhorn_permanent", "scaled_sinkhorn_permanent", "bethe_permanent"):
            ops.append(Op(i, name, call(pm.approx, name, a)))
        if a.shape[0] <= RYSER_MAX_N:
            ops.append(Op(i, "log_permanent", call(pm.permanent, "log_permanent", a)))
    ops = _shuffled(ops, rng)
    exact = {}

    def judge(outputs):
        failures = {j: [] for j in range(len(ops))}
        by_input: dict[int, dict[str, tuple[int, object]]] = {}
        for j, (o, out) in enumerate(zip(ops, outputs)):
            by_input.setdefault(o.key, {})[o.kind] = (j, out)
        quality = []
        for key, got in by_input.items():
            a, mult, sizes = mats[key]
            n = a.shape[0]
            if key not in exact:
                exact[key] = ref.log_perm_distinct_columns(a, mult)
            lp = exact[key]
            (js, sk), (jc, sc), (jb, be) = (
                got["sinkhorn_permanent"],
                got["scaled_sinkhorn_permanent"],
                got["bethe_permanent"],
            )
            tol = SANDWICH_TOL * max(1.0, abs(lp))
            if not sk.converged:
                failures[js].append("perm.sinkhorn_converged")
            if not be.converged:
                failures[jb].append("perm.bethe_converged")
            if not _close(sc.log_value, sk.log_value - n):
                failures[jc].append("perm.scaled_offset")
            if sc.log_value > be.log_value + tol:
                failures[jc].append("perm.scaled_le_bethe")
            if be.log_value > lp + tol:
                failures[jb].append("perm.bethe_le_perm")
            if lp > sk.log_value + tol:
                failures[js].append("perm.perm_le_sinkhorn")
            if lp > be.log_value + 0.5 * n * math.log(2.0) + tol:
                failures[jb].append("perm.perm_le_bethe_2n")
            if sizes is not None:
                closed = ref.block_ones_closed_forms(sizes)
                if not _close(lp, closed["perm"]):
                    failures[jb].append("perm.reference_closed_form")
                if not _close(sk.log_value, closed["sinkhorn"]):
                    failures[js].append("perm.sinkhorn_closed_form")
                if not _close(be.log_value, closed["bethe"], SANDWICH_TOL):
                    failures[jb].append("perm.bethe_closed_form")
            if "log_permanent" in got:
                jl, value = got["log_permanent"]
                if not _close(value, lp):
                    failures[jl].append("perm.log_permanent")
            quality.append((be.log_value - lp) / n)
        return failures, quality

    warm, _ = pm.approx.k_distinct_column_matrix(6, 2, 0)

    def warmup():
        for name in ("sinkhorn_permanent", "scaled_sinkhorn_permanent", "bethe_permanent"):
            getattr(pm.approx, name)(warm)
        pm.permanent.log_permanent(warm)

    return Workload(ops, judge, warmup)


WORKLOADS = {
    "pml": make_pml,
    "oracle": make_oracle,
    "pml-large": make_pml_large,
    "perm": make_perm,
}
