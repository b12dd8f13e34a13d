"""End-to-end approximate PML, the exhaustive PML oracle, and plug-in estimators.

The pipeline: build the probability grid for the profile's sample count,
maximize log g over the fractional feasible set, round to integral row sums
with gamma = 1/sqrt(n), expand the result into a pseudo-distribution and
normalize it.  The profile probability of the output is evaluated exactly
through the level-grouped formula, which stays feasible even when the
support is far beyond the permanent size limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from permpml.convex import (
    G_MAX_ITER,
    G_TOL,
    build_discretization,
    maximize_log_g,
    pseudo_distribution_of,
)
from permpml.profiles import (
    Profile,
    check_pseudo_distribution,
    profile_probability_grouped,
)
from permpml.rounding import RoundingTrace, round_allocation

ORACLE_N_LIMIT = 6
ORACLE_SUPPORT_LIMIT = 6


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


def approximate_pml(
    p: Profile,
    eps: float | None = None,
    gamma: float | None = None,
    tol: float = G_TOL,
    max_iter: int = G_MAX_ITER,
) -> PmlResult:
    """Compute an approximate PML distribution for a profile.

    The discretization and the rounding threshold are tied to the sample
    count n (clamped to 2: a single sample still needs a two-point grid and
    gamma must stay below 1).  Solver non-convergence is flagged on the
    result rather than raised.
    """
    n_eff = max(p.n, 2)
    grid = build_discretization(n_eff, eps)
    if gamma is None:
        gamma = 1.0 / math.sqrt(n_eff)
    alloc, info = maximize_log_g(p, grid, tol=tol, max_iter=max_iter, return_info=True)
    trace = round_allocation(alloc, gamma)
    q = pseudo_distribution_of(trace.final)
    dist = q / q.sum()
    phi0 = len(dist) - p.observed
    log_prob = profile_probability_grouped(dist, p, phi0)
    return PmlResult(
        distribution=dist,
        log_profile_probability=log_prob,
        trace=trace,
        solver_log_g=alloc.log_g(),
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


def exact_pml_oracle(
    p: Profile,
    max_support: int | None = None,
    grid_step: float = 0.02,
    extra_candidates=(),
) -> tuple[np.ndarray, float]:
    """Best distribution on a simplex grid, maximizing the profile probability.

    Exhausts every support size up to max_support and every probability
    vector whose entries are multiples of grid_step; the result is a
    certified lower bound on the true PML objective at that resolution.
    Candidates passed via extra_candidates compete on exact values.
    """
    if p.n > ORACLE_N_LIMIT:
        raise ValueError(f"oracle limited to n <= {ORACLE_N_LIMIT}")
    if max_support is None:
        max_support = min(ORACLE_SUPPORT_LIMIT, 2 * p.observed)
    if max_support > ORACLE_SUPPORT_LIMIT:
        raise ValueError(f"oracle limited to support <= {ORACLE_SUPPORT_LIMIT}")
    units = round(1.0 / grid_step)
    if abs(units * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must divide 1")
    best_q = None
    best = -math.inf
    for support in range(max(1, p.observed), max_support + 1):
        for part in _partitions_into(units, support, units):
            q = np.array(part, dtype=float) * grid_step
            val = profile_probability_grouped(q, p, support - p.observed)
            if val > best:
                best = val
                best_q = q
    for cand in extra_candidates:
        q = check_pseudo_distribution(cand)
        if len(q) < p.observed:
            continue
        val = profile_probability_grouped(q, p, len(q) - p.observed)
        if val > best:
            best = val
            best_q = q.copy()
    if best_q is None:
        raise ValueError("no feasible candidate found")
    return best_q, best


def estimate_property(res: PmlResult, which: str, draws: int | None = None) -> PropertyEstimate:
    """Plug-in symmetric property of the approximate PML distribution.

    support_coverage uses m = n draws unless overridden via `draws`.
    """
    q = res.distribution
    pos = q[q > 0]
    if which == "entropy":
        value = float(-np.sum(pos * np.log(pos)))
    elif which == "support_size":
        value = float(len(pos))
    elif which == "support_coverage":
        m = res.params["n"] if draws is None else draws
        value = float(np.sum(1.0 - np.power(1.0 - pos, m)))
    elif which == "distance_to_uniformity":
        value = float(np.sum(np.abs(pos - 1.0 / len(pos))))
    else:
        raise ValueError(f"unknown property {which!r}")
    return PropertyEstimate(property=which, value=value, basis=res)
