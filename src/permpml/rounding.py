"""Three-stage rounding of a fractional allocation to integral row sums.

Stage 1 floors the rows of probability value above gamma entrywise and floors
each column's total over the low rows; stage 2 floors the remaining row sums
(in both, a sum within 1e-9 or 16 ulps of an integer counts as that
integer); both stages re-deposit the shaved mass on freshly created
probability values (one per column, at the weighted mean of the removed
mass).  Stage 3 rounds the fractional parts of the stage-2 diagonal rows
with the structured rounding routine and divides every probability value by
1 + gamma so the total mass stays below one.  Column sums are preserved
exactly throughout and every row sum of the result is a non-negative
integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from permpml.convex import AllocationMatrix, log_g, near, near_integer
from permpml.permanent import strict_json


@dataclass(frozen=True)
class RoundingTrace:
    """The two intermediate allocations, the final one, the input's log g and the g-losses."""

    stage1: AllocationMatrix
    stage2: AllocationMatrix
    final: AllocationMatrix
    gamma: float
    log_g_input: float

    @property
    def log_g_drops(self) -> tuple[float, float, float]:
        """The log g each stage loses, computed on demand: the PML path reads none of them."""
        g1 = self.stage1.log_g()
        g2 = self.stage2.log_g()
        gf = self.final.log_g()
        return (self.log_g_input - g1, g1 - g2, g2 - gf)

    def to_json(self) -> str:
        # degenerate zero-mass rows at probability 0 only pad the indices;
        # they are dropped from the serialized audit record
        def pruned(alloc: AllocationMatrix) -> AllocationMatrix:
            keep = (alloc.levels > 0) | (alloc.entries.sum(axis=1) > 0)
            return AllocationMatrix(alloc.levels[keep], alloc.entries[keep], alloc.profile)

        return strict_json(
            {
                "gamma": self.gamma,
                "log_g_drops": self.log_g_drops,
                "stage1": pruned(self.stage1),
                "stage2": pruned(self.stage2),
                "final": pruned(self.final),
            }
        )


def _push_drift(x: np.ndarray, a: int) -> None:
    """Make the entries of x sum to the integer a, in place.

    The float drift goes onto one entry: the one with most headroom below 1
    when it is positive, the largest when it is negative.
    """
    drift = a - float(x.sum())
    if drift != 0.0:
        idx = int(np.argmax(1.0 - x)) if drift > 0 else int(np.argmax(x))
        x[idx] += drift


def structured_rounding(x, w, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Spread fractional weights x (summing to the integer a) onto unit rows.

    Returns (z, s): z has row sums in {0, 1}, column sums equal to x, and the
    breakpoint rows s host the split entries.  Condition 3 of the guarantee
    (the weight-product inequality) needs w sorted non-increasing, so the
    routine sorts internally and maps the result back to the caller's
    indices; z_{i,j} > 0 then implies w_i >= w_j.
    """
    xv = np.asarray(x, dtype=float).copy()
    wv = np.asarray(w, dtype=float)
    if xv.shape != wv.shape or xv.ndim != 1:
        raise ValueError("x and w must be equal-length vectors")
    if np.any(xv < 0) or np.any(xv >= 1.0):
        raise ValueError("x entries must lie in [0, 1); integer parts belong to the caller")
    if a < 0 or int(a) != a:
        raise ValueError("a must be a non-negative integer")
    total = float(xv.sum())
    if not near(total, a):
        raise ValueError(f"sum of x ({total}) must equal a ({a}) within 1e-9 or 16 ulps")
    c = len(xv)
    z = np.zeros((c, c))
    s_out = np.zeros(0, dtype=int)
    if a == 0:
        return z, s_out
    # repair float drift so the cumulative sums hit a exactly
    _push_drift(xv, a)
    order = np.argsort(-wv, kind="stable")
    xs = xv[order]
    cums = np.cumsum(xs)
    cums[-1] = float(a)
    s_sorted = np.searchsorted(cums, np.arange(a), side="right")
    zs = np.zeros((c, c))
    for i in range(a):
        row = s_sorted[i]
        nxt = s_sorted[i + 1] if i + 1 < a else c - 1
        zs[row, row + 1 : nxt] = xs[row + 1 : nxt]
        zs[row, row] = cums[row] - i
        if nxt > row:
            zs[row, nxt] = 1.0 - zs[row, row:nxt].sum()
    # the closing entries can undershoot zero by one ulp
    zs = np.clip(zs, 0.0, None)
    z[np.ix_(order, order)] = zs
    return z, order[s_sorted]


def create_new_probability_values(b, c) -> AllocationMatrix:
    """Append one row per column holding the mass removed from b down to c.

    The new probability value of column j's row is the weighted mean level of
    the removed mass (0 when nothing was removed; such zero-mass rows are
    kept so downstream indices stay aligned).  Column sums are preserved.
    """
    if isinstance(b, AllocationMatrix):
        levels = b.levels
        profile = b.profile
        bm = b.entries
    else:
        raise TypeError("b must be an AllocationMatrix")
    cm = c.entries if isinstance(c, AllocationMatrix) else np.asarray(c, dtype=float)
    if cm.shape != bm.shape:
        raise ValueError("c must have the shape of b")
    if np.any(cm > bm + 1e-12):
        raise ValueError("c must not exceed b entrywise")
    cm = np.minimum(cm, bm)
    t, ncols = bm.shape
    removed = bm - cm
    col_removed = removed.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        new_levels = np.where(
            col_removed > 0, (levels @ removed) / np.where(col_removed > 0, col_removed, 1.0), 0.0
        )
    out = np.zeros((t + ncols, ncols))
    out[:t] = cm
    out[t + np.arange(ncols), np.arange(ncols)] = col_removed
    return AllocationMatrix(np.concatenate([levels, new_levels]), out, profile)


def _snapped_floor(x: np.ndarray) -> np.ndarray:
    """Floor, except that sums near an integer (`near_integer`) count as it.

    A column or row sum one ulp below an integer would otherwise lose a whole
    unit to a freshly created probability value.
    """
    return np.where(near_integer(x), np.round(x), np.floor(x))


def _shrink_to_snapped_floor(x: np.ndarray) -> np.ndarray:
    """Factors that scale the positive sums x down to their snapped floors.

    A sum snapped up to an integer keeps its entries (factor 1): scaling
    them up would put mass back where the stage may only remove it.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(x > 0, np.minimum(1.0, _snapped_floor(x) / np.where(x > 0, x, 1.0)), 0.0)


def round_allocation(s: AllocationMatrix, gamma: float) -> RoundingTrace:
    """Round a fractional allocation to integral row sums (three stages).

    Requires column sums equal to the profile multiplicities and mass at most
    one.  The unseen column's total is first scaled down to its floor: the
    stage guarantees (integral high-row sums, the integral total of the
    stage-2 diagonal rows) hold only when the total allocation mass is an
    integer, and the unseen total is the only fractional column sum.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not s.is_fractionally_feasible():
        raise ValueError("input must satisfy the fractional feasibility constraints")
    entries = s.entries.copy()
    col0 = float(entries[:, 0].sum())
    if col0 > 0:
        snapped = float(_snapped_floor(col0))
        entries[:, 0] *= snapped / col0
    base = AllocationMatrix(s.levels, entries, s.profile)
    g_input = log_g(s.entries, s.levels, s.col_freqs)

    # Step 1: floor high rows entrywise, scale low rows to floored column sums
    levels = base.levels
    high = levels > gamma
    low = ~high
    a1 = np.zeros_like(entries)
    a1[high] = np.floor(entries[high])
    a1[low] = entries[low] * _shrink_to_snapped_floor(entries[low].sum(axis=0))[None, :]
    stage1 = create_new_probability_values(base, a1)

    # Step 2: floor the row sums of the low rows
    high1 = stage1.levels > gamma
    rs1 = stage1.entries.sum(axis=1)
    a2 = stage1.entries.copy()
    lowmask = ~high1
    a2[lowmask] = stage1.entries[lowmask] * _shrink_to_snapped_floor(rs1)[lowmask, None]
    stage2 = create_new_probability_values(stage1, a2)

    # Step 3: structured rounding of the fractional parts of the diagonal rows
    t2 = len(stage1.levels)
    ncols = stage2.entries.shape[1]
    diag = stage2.entries[t2 + np.arange(ncols), np.arange(ncols)]
    floors = np.floor(diag)
    frac = diag - floors
    frac[frac < 1e-12] = 0.0
    # the parts sum to an integer by construction, up to a float drift that
    # grows with the column sums (over 1e-9 at n = 10^4): remove it before
    # structured rounding checks the sum
    a = int(round(float(frac.sum())))
    if a > 0:
        _push_drift(frac, a)
    z, _ = structured_rounding(frac, stage2.levels[t2:], a)
    final_entries = stage2.entries.copy()
    final_entries[t2:] = np.floor(stage2.entries[t2:]) + z
    final_levels = stage2.levels / (1.0 + gamma)
    # snap row sums that are integral within tolerance to exact integers
    rs = final_entries.sum(axis=1)
    snap = near_integer(rs) & (rs > 0) & (np.round(rs) > 0)
    final_entries[snap] *= (np.round(rs[snap]) / rs[snap])[:, None]
    final = AllocationMatrix(final_levels, final_entries, s.profile)
    return RoundingTrace(
        stage1=stage1, stage2=stage2, final=final, gamma=gamma, log_g_input=g_input
    )
