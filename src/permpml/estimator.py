"""End-to-end approximate PML, the exhaustive PML oracle, and plug-in estimators.

The pipeline: build the probability grid for the profile's sample count,
maximize log g over the fractional feasible set, round to integral row sums
with gamma = 1/sqrt(n), expand the result into a pseudo-distribution and
normalize it.  The profile probability of the output is evaluated exactly
by ``profile_probability_grouped``, whose cost depends on the profile and
the number of distinct output values, not on the support size; an output
past that function's limits raises its ValueError.

The oracle, ``exact_pml_oracle``, searches a simplex grid at n <= 6.  It
scores the candidates of every support size by the profile probability's
definition, C_phi times a sum over the distinct assignments of the
frequencies to the symbols (at most 120 of them), so matrix products score
all candidates at once; only those near the best score over all support
sizes are evaluated, by ``profile_probability_grouped``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from permpml.convex import build_discretization, maximize_log_g, pseudo_distribution_of
from permpml.permanent import GROUPED_STATE_LIMIT, logsumexp, strict_json
from permpml.profiles import MASS_TOL, Profile, log_c_phi, profile_probability_grouped
from permpml.rounding import RoundingTrace, round_allocation

ORACLE_N_LIMIT = 6
ORACLE_SUPPORT_LIMIT = 6
# Scores within this relative distance of the best over all support sizes
# are re-evaluated one by one: the scores differed from
# profile_probability_grouped's by at most 1.8e-15 (relative to
# max(1, |value|)) on every grid candidate of the profiles with n <= 6 at
# grid steps 0.05 and 0.02, so no candidate outside the cut can win.
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class PmlResult:
    distribution: np.ndarray  # normalized, sums to 1
    log_profile_probability: float
    trace: RoundingTrace
    solver_log_g: float
    params: dict
    converged: bool

    def to_json(self) -> str:
        fields = ("distribution", "log_profile_probability", "solver_log_g", "converged", "params")
        return strict_json({f: getattr(self, f) for f in fields})


@dataclass(frozen=True)
class PropertyEstimate:
    property: str
    value: float
    basis: PmlResult


def approximate_pml(p: Profile) -> PmlResult:
    """Compute an approximate PML distribution for a profile.

    The discretization and the rounding threshold are tied to the sample
    count n (clamped to 2: a single sample still needs a two-point grid and
    gamma must stay below 1).  Solver non-convergence is flagged on the
    result rather than raised; an output whose exact evaluation is past the
    limits of profile_probability_grouped raises its ValueError, and so does
    an n whose grid is past build_discretization's GRID_LEVEL_LIMIT.
    """
    n_eff = max(p.n, 2)
    grid = build_discretization(n_eff)
    gamma = 1.0 / math.sqrt(n_eff)
    alloc, info = maximize_log_g(p, grid, return_info=True)
    trace = round_allocation(alloc, gamma)
    q = pseudo_distribution_of(trace.final)
    dist = q / q.sum()
    log_prob = profile_probability_grouped(dist, p)
    return PmlResult(
        distribution=dist,
        log_profile_probability=log_prob,
        trace=trace,
        solver_log_g=trace.log_g_input,
        params={
            "n": p.n,
            "eps": grid.eps,
            "gamma": gamma,
            "ell": len(grid),
            "k": p.k,
        },
        converged=info.converged,
    )


def _partitions_into(total: int, parts: int) -> np.ndarray:
    """Non-increasing positive integer rows of the given length and sum, in decreasing lexicographic order.

    With rest left for left entries, a row's next entry runs down from
    min(its last, rest - left + 1) to max(1, ceil(rest / left)).
    """
    rows = np.zeros((int(total >= parts), 0), dtype=np.int64)
    rest = last = np.full(len(rows), total)
    for left in range(parts, 0, -1):
        hi = np.minimum(last, rest - left + 1)
        width = hi - np.maximum(1, -(-rest // left)) + 1
        parent = np.repeat(np.arange(len(rows)), width)
        last = np.repeat(hi + np.cumsum(width) - width, width) - np.arange(len(parent))
        rows = np.column_stack((rows[parent], last))
        rest = rest[parent] - last
    return rows


@functools.cache
def _grid_size(units: int, supports: range) -> int:
    """The grid's candidate count over these support sizes, capped at GROUPED_STATE_LIMIT + 1.

    p(u, s), the partitions of u into s positive parts, follows
    p(u, s) = p(u - 1, s - 1) + p(u - s, s): row s is row s - 1 shifted by
    one and summed along each residue class of u mod s.  p(u, s) grows with
    u and is at least (u - s + 1) / 2 for 2 <= s <= u, so a grid too large
    by that bound is refused before any row is built.  Cached: the oracle
    asks for the same few counts on every call.
    """
    cap = GROUPED_STATE_LIMIT + 1
    if not supports or units < supports.start:
        return 0
    top = supports[-1]
    if top == 1:
        return 1
    if units - top + 1 > 2 * GROUPED_STATE_LIMIT:
        return cap
    row = np.zeros(units + 1, dtype=np.int64)
    row[0] = 1
    total = 0
    for s in range(1, top + 1):
        shifted = np.zeros(-(-(units + 1) // s) * s, dtype=np.int64)
        shifted[1 : units + 1] = row[:units]
        row = np.minimum(shifted.reshape(-1, s).cumsum(axis=0).ravel()[: units + 1], cap)
        if s in supports:
            total += int(row[units])
    return min(total, cap)


@functools.cache
def _simplex_grid(units: int, support: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid's non-increasing probability vectors of one support size (rows) and their logs.

    Multiples of 1 / units, of mass 1 within 4.4e-16 (units <= 500), far inside
    MASS_TOL; cached read-only: the oracle searches the same grids on every call.
    """
    qs = _partitions_into(units, support) * (1.0 / units)
    log_qs = np.log(qs)
    qs.flags.writeable = False
    log_qs.flags.writeable = False
    return qs, log_qs


@functools.cache
def _assignments(items: tuple) -> np.ndarray:
    """The distinct orderings of a tuple, one per row in lexicographic order; cached read-only."""
    a = np.array(sorted(set(itertools.permutations(items))), dtype=float)
    a.flags.writeable = False
    return a


def _log_probabilities(log_qs: np.ndarray, p: Profile) -> np.ndarray:
    """log P(q, phi) of every q with log(q) a row of log_qs, one support size.

    By the definition, P(q, phi) = C_phi sum_a prod_i q_i^{a_i} over the
    distinct assignments a of the profile's frequencies, and 0 for each
    unseen symbol, to the symbols: one logsumexp of log_qs @ A.T, A the
    assignments.  The rows must be the logs of positive vectors of mass at
    most 1, as the rows of `_simplex_grid` are by construction.  Rows go in
    chunks of at most GROUPED_STATE_LIMIT sums, so the temporaries stay
    bounded.  Equal values are not grouped, so a row's value can differ
    from `profile_probability_grouped`'s in the last bits.
    """
    items = (0,) * (log_qs.shape[1] - p.observed) + tuple(np.repeat(p.freqs, p.counts).tolist())
    a = _assignments(items)
    chunk = max(1, GROUPED_STATE_LIMIT // len(a))
    scores = [logsumexp(log_qs[i : i + chunk] @ a.T, 1) for i in range(0, len(log_qs), chunk)]
    return log_c_phi(p) + np.concatenate(scores)


def exact_pml_oracle(
    p: Profile,
    max_support: int | None = None,
    grid_step: float = 0.02,
) -> tuple[np.ndarray, float]:
    """Best distribution on a simplex grid, maximizing the profile probability.

    Exhausts every support size up to max_support and every probability
    vector whose entries are multiples of 1 / units, units = round(1 /
    grid_step), where grid_step must divide 1 (units * grid_step within
    MASS_TOL of 1); the result is a certified lower bound on the true PML
    objective at that resolution.  Grids of more than GROUPED_STATE_LIMIT
    candidates over all support sizes raise ValueError before any is built.
    The candidates of every support size are scored by the profile
    probability's definition; those within a relative 1e-9 of the best
    score over all support sizes are then evaluated by
    profile_probability_grouped, support size ascending and then in grid
    order, so the returned value is that function's and ties go to the
    first candidate.
    """
    if p.n > ORACLE_N_LIMIT:
        raise ValueError(f"oracle limited to n <= {ORACLE_N_LIMIT}")
    if max_support is None:
        max_support = min(ORACLE_SUPPORT_LIMIT, 2 * p.observed)
    if max_support > ORACLE_SUPPORT_LIMIT:
        raise ValueError(f"oracle limited to support <= {ORACLE_SUPPORT_LIMIT}")
    units = round(1.0 / grid_step) if 0 < grid_step <= 1 else 0
    if units == 0 or abs(units * grid_step - 1.0) > MASS_TOL:
        raise ValueError(f"grid_step must lie in (0, 1] and divide 1, got {grid_step}")
    supports = range(max(1, p.observed), max_support + 1)
    if _grid_size(units, supports) > GROUPED_STATE_LIMIT:
        raise ValueError(
            f"grid_step {grid_step} gives more than {GROUPED_STATE_LIMIT} candidates; "
            "use a coarser grid_step"
        )
    scored = []
    for support in supports:
        qs, log_qs = _simplex_grid(units, support)
        if len(qs):
            scored.append((qs, _log_probabilities(log_qs, p)))
    if not scored:
        need = f"max_support >= {p.observed} and grid_step <= 1/{p.observed}"
        got = f"max_support {max_support} and grid_step {grid_step}"
        raise ValueError(f"no feasible candidate: {p.observed} observed symbols need {need}, got {got}")
    top = max(scores.max() for _, scores in scored)
    cut = top - _TIE_TOL * max(1.0, abs(top))
    best_q = None
    best = -math.inf
    for qs, scores in scored:
        # boolean indexing copies: the caller's q never aliases the cache
        for q in qs[scores >= cut]:
            val = profile_probability_grouped(q, p)
            if val > best:
                best = val
                best_q = q
    return best_q, best


def estimate_property(res: PmlResult, which: str) -> PropertyEstimate:
    """Plug-in symmetric property of the approximate PML distribution.

    support_coverage uses m = n draws.
    """
    q = res.distribution
    pos = q[q > 0]
    if which == "entropy":
        value = float(-np.sum(pos * np.log(pos)))
    elif which == "support_size":
        value = float(len(pos))
    elif which == "support_coverage":
        value = float(np.sum(1.0 - np.power(1.0 - pos, res.params["n"])))
    elif which == "distance_to_uniformity":
        value = float(np.sum(np.abs(pos - 1.0 / len(pos))))
    else:
        raise ValueError(f"unknown property {which!r}")
    return PropertyEstimate(property=which, value=value, basis=res)
