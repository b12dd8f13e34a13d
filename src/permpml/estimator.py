"""End-to-end approximate PML, the exhaustive PML oracle, and plug-in estimators.

The pipeline: build the probability grid for the profile's sample count,
maximize log g over the fractional feasible set, round to integral row sums
with gamma = 1/sqrt(n), expand the result into a pseudo-distribution and
normalize it.  The profile probability of the output is evaluated exactly
by ``profile_probability_grouped``, whose cost depends on the profile and
the number of distinct output values, not on the support size; an output
past that function's limits raises its ValueError.

The oracle, ``exact_pml_oracle``, searches a simplex grid at n <= 6.  It
ranks the candidates of one support size by the profile probability's
definition, C_phi times a sum over the distinct assignments of the
frequencies to the symbols (at most 120 of them), so matrix products score
all candidates at once; only the best few are evaluated, by
``profile_probability_grouped``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from permpml.convex import build_discretization, maximize_log_g, pseudo_distribution_of
from permpml.permanent import GROUPED_STATE_LIMIT, logsumexp
from permpml.profiles import (
    MASS_TOL,
    Profile,
    log_c_phi,
    profile_probability_grouped,
)
from permpml.rounding import RoundingTrace, round_allocation

ORACLE_N_LIMIT = 6
ORACLE_SUPPORT_LIMIT = 6
# The oracle's simplex grids, per (units, grid_step, support size).
_GRID_CACHE: dict[tuple[int, float, int], np.ndarray] = {}
# Scores within this relative distance of a support's best are re-evaluated
# one by one: the scores differed from profile_probability_grouped's by at
# most 1.8e-15 (relative to max(1, |value|)) on every grid candidate of the
# profiles with n <= 6 at grid steps 0.05 and 0.02.
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
        return json.dumps(
            {
                "distribution": [float(x) for x in self.distribution],
                "log_profile_probability": self.log_profile_probability,
                "solver_log_g": self.solver_log_g,
                "converged": self.converged,
                "params": self.params,
            }
        )


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
    limits of profile_probability_grouped raises its ValueError.
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


def _partitions_into(total: int, parts: int, maximum: int):
    """Non-increasing positive integer tuples of the given length and sum."""
    if parts == 1:
        if 1 <= total <= maximum:
            yield (total,)
        return
    for first in range(min(total - parts + 1, maximum), 0, -1):
        for rest in _partitions_into(total - first, parts - 1, first):
            yield (first,) + rest


def _simplex_grid(units: int, grid_step: float, support: int) -> np.ndarray:
    """The grid's non-increasing probability vectors of one support size, one per row.

    Cached read-only per (units, grid_step, support): the oracle searches
    the same grids on every call.
    """
    key = (units, grid_step, support)
    qs = _GRID_CACHE.get(key)
    if qs is None:
        qs = np.array(list(_partitions_into(units, support, units)), dtype=float) * grid_step
        qs.flags.writeable = False
        _GRID_CACHE[key] = qs
    return qs


def _arrangements(items: tuple) -> list[tuple]:
    """The distinct orderings of a sorted tuple."""
    if not items:
        return [()]
    return [
        (x,) + rest
        for i, x in enumerate(items)
        if i == 0 or items[i - 1] != x
        for rest in _arrangements(items[:i] + items[i + 1 :])
    ]


def _log_probabilities(qs: np.ndarray, p: Profile) -> np.ndarray:
    """log P(q, phi) of every row of qs, positive vectors of one support.

    By the definition, P(q, phi) = C_phi sum_a prod_i q_i^{a_i} over the
    distinct assignments a of the profile's frequencies, and 0 for each
    unseen symbol, to the symbols: one logsumexp of log(qs) @ A.T, A the
    assignments.  Rows go in chunks of at most GROUPED_STATE_LIMIT sums, so
    the temporaries stay bounded.  Equal values are not grouped, so a row's
    value can differ from `profile_probability_grouped`'s in the last bits.
    """
    if not np.all(np.isfinite(qs) & (qs > 0)):
        raise ValueError("candidate entries must be finite and positive")
    if np.any(qs.sum(axis=1) > 1.0 + MASS_TOL):
        raise ValueError("candidate mass exceeds 1")
    items = (0,) * (qs.shape[1] - p.observed) + tuple(np.repeat(p.freqs, p.counts).tolist())
    a = np.array(_arrangements(items), dtype=float)
    log_qs = np.log(qs)
    chunk = max(1, GROUPED_STATE_LIMIT // len(a))
    scores = [logsumexp(log_qs[i : i + chunk] @ a.T, 1) for i in range(0, len(qs), chunk)]
    return log_c_phi(p) + np.concatenate(scores)


def exact_pml_oracle(
    p: Profile,
    max_support: int | None = None,
    grid_step: float = 0.02,
) -> tuple[np.ndarray, float]:
    """Best distribution on a simplex grid, maximizing the profile probability.

    Exhausts every support size up to max_support and every probability
    vector whose entries are multiples of grid_step; the result is a
    certified lower bound on the true PML objective at that resolution.
    The candidates of one support size are scored together by the profile
    probability's definition; those within a relative 1e-9 of the best
    score are then evaluated by profile_probability_grouped in grid order,
    so the returned value is that function's and ties go to the first
    candidate, across support sizes too.
    """
    if p.n > ORACLE_N_LIMIT:
        raise ValueError(f"oracle limited to n <= {ORACLE_N_LIMIT}")
    if max_support is None:
        max_support = min(ORACLE_SUPPORT_LIMIT, 2 * p.observed)
    if max_support > ORACLE_SUPPORT_LIMIT:
        raise ValueError(f"oracle limited to support <= {ORACLE_SUPPORT_LIMIT}")
    if not 0 < grid_step <= 1:
        raise ValueError("grid_step must lie in (0, 1]")
    units = round(1.0 / grid_step)
    if abs(units * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must divide 1")
    candidates = []
    for support in range(max(1, p.observed), max_support + 1):
        qs = _simplex_grid(units, grid_step, support)
        if not len(qs):
            continue
        scores = _log_probabilities(qs, p)
        top = scores.max()
        candidates += list(qs[scores >= top - _TIE_TOL * max(1.0, abs(top))])
    best_q = None
    best = -math.inf
    for q in candidates:
        val = profile_probability_grouped(q, p)
        if val > best:
            best = val
            best_q = q
    if best_q is None:
        raise ValueError("no feasible candidate found")
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
