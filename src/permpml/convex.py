"""Probability discretization and maximization of the concave surrogate log g.

The feasible set couples probability levels (rows) to observed frequencies
(columns): column sums for the observed frequencies are fixed to their
multiplicities, column 0 (the unseen frequency) is free, and the expected
total probability mass is at most one.  log g is concave on this polytope;
its maximizer is a fractional representation of an approximate PML
distribution, later rounded to integral row sums.

The solver works on the program's small dual: one price nu_j per observed
frequency (nu_0 = 0), a mass price lam, and the constraints
log z_i(nu) <= lam r_i per level with z_i(nu) = sum_j r_i^{m_j} e^{-nu_j}.
A primal-dual interior-point Newton method (Mehrotra predictor-corrector on
the KKT system in (nu, lam, t)) follows the central path
t_i (lam r_i - log z_i) = mu, where t_i is the row sum of level i, and a
last Newton solve on the active rows it reveals lands on the optimal face.
The returned matrix is S_ij = t_i softmax_j(m_j log r_i - nu_j); its log g
gradient is nu_j + log z_i, so its Frank-Wolfe duality gap is the interior
point's complementarity gap.  That gap, evaluated on the exact returned
matrix, certifies the result: the linear program's optimum is bounded by its
one-dimensional dual over the mass price (an upper bound at any price at or
above the floor set by the free column 0), taken at that floor.  At the
solver's output the floor is the solver's own mass price and the bound is
the optimum; elsewhere the reported gap can only overstate the exact one.

The row log-partitions log z_i come from `permanent.logsumexp`, whose log1p
form the certificate needs: at the floor levels r_i ~ 1/(2n^2) the dual
constraint compares log z_i with lam r_i, both of order 1/n^2, and the log
of the shifted sum would err by an ulp of 1, about n^2 ulps of the slack (at
n = 10^4 it pushed reported gaps to 1.7e-8, past G_TOL).  The KKT system's
block of level rows is diagonal, so each Newton step eliminates the levels
whose multiplier stays below 1/sqrt(eps) and solves the small rest
(k + 1 unknowns plus the levels kept) with numpy alone; a predictor and its
corrector share one inverse of that reduced matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from permpml.permanent import logsumexp, strict_json
from permpml.profiles import MASS_TOL, Profile, check_pseudo_distribution

G_TOL = 1e-8
G_MAX_ITER = 100
# build_discretization's levels, about 2 sqrt(n): 2066 at n = 10^6, and the
# limit is reached at n = 23 922 538
GRID_LEVEL_LIMIT = 10_000

_FLOOR = 1e-250
_FOOTPRINT = 1e-30
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)


@dataclass(frozen=True)
class DiscretizationSet:
    """Geometric grid r_i = (1+eps)^{1-i} from 1 down into [1/(4n^2), 1/(2n^2)]."""

    values: np.ndarray
    eps: float
    n: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or len(v) < 2:
            raise ValueError("discretization needs at least two values")
        if abs(v[0] - 1.0) > 1e-12:
            raise ValueError("grid must start at 1")
        if np.any(v <= 0) or np.any(np.diff(v) >= 0):
            raise ValueError("grid must be strictly decreasing and positive")
        ratios = v[:-1] / v[1:]
        if np.any(np.abs(ratios - (1.0 + self.eps)) > 1e-12 * (1.0 + self.eps)):
            raise ValueError("grid must be geometric with ratio 1+eps")
        floor_hi = 1.0 / (2.0 * self.n**2)
        floor_lo = 1.0 / (4.0 * self.n**2)
        if not floor_lo <= v[-1] <= floor_hi:
            raise ValueError(
                f"last grid value {v[-1]} outside [{floor_lo}, {floor_hi}]"
            )

    def __len__(self) -> int:
        return len(self.values)


def build_discretization(n: int) -> DiscretizationSet:
    """Grid with ratio 1+eps, eps = log(n)/sqrt(n), truncated at the first value <= 1/(2n^2).

    Its 1 + ceil(log(2n^2) / log(1 + eps)) levels are counted first, with
    sqrt(n) as exp(log(n) / 2), which overflows at no n: past
    GRID_LEVEL_LIMIT it raises ValueError before the grid is built.
    """
    if n < 2:
        raise ValueError("discretization requires n >= 2")
    log_n = math.log(n)
    if math.log(2.0) + 2.0 * log_n > (GRID_LEVEL_LIMIT - 1) * math.log1p(log_n * math.exp(-0.5 * log_n)):
        raise ValueError(
            f"the grid at n = 10^{log_n / math.log(10):.1f} needs over {GRID_LEVEL_LIMIT} levels, about 2 sqrt(n)"
        )
    eps = log_n / math.sqrt(n)
    cutoff = 1.0 / (2.0 * n * n)
    vals = [1.0]
    while vals[-1] > cutoff:
        vals.append(vals[-1] / (1.0 + eps))
    return DiscretizationSet(np.array(vals), eps, n)


def discretize(p, grid: DiscretizationSet) -> np.ndarray:
    """Round every positive probability down to the nearest grid value."""
    v = check_pseudo_distribution(p)
    pos = v > 0
    if np.any(v[pos] < grid.values[-1]):
        raise ValueError(
            f"positive entries below the grid floor {grid.values[-1]} cannot be discretized"
        )
    ascending = grid.values[::-1]
    idx = np.searchsorted(ascending, v[pos], side="right") - 1
    out = np.zeros_like(v)
    out[pos] = ascending[idx]
    return out


def near(x, target) -> np.ndarray:
    """Entries of x within 1e-9, or within 16 ulps of the target, of target.

    The ulps take over past about 2.8e5: an absolute tolerance alone fails
    past about 8.4e6, where one ulp exceeds 1e-9, and a sum one ulp below
    an integer would count as fractional.  A tolerance relative to the entry
    (1e-9 |x|) would instead count mass of 1e-8 at sums near 60 as rounding
    error, and the snaps that keep such a sum's entries would leave it on a
    row of its own.
    """
    return np.abs(x - target) <= np.maximum(1e-9, 16.0 * np.spacing(np.abs(target)))


def near_integer(x: np.ndarray) -> np.ndarray:
    """Entries `near` their nearest integer."""
    return near(x, np.round(x))


@dataclass(frozen=True)
class AllocationMatrix:
    """Coupling of probability levels (rows) to frequencies (columns).

    Column 0 carries the unseen frequency 0; columns 1..k follow the
    profile's increasing frequencies.  `levels` may be an extended value set
    produced by rounding, so it is stored as a plain vector.
    """

    levels: np.ndarray
    entries: np.ndarray
    profile: Profile

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        en = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "entries", en)
        if en.shape != (len(lv), self.profile.k + 1):
            raise ValueError(
                f"entries shape {en.shape} does not match {len(lv)} levels x k+1 columns"
            )
        if np.any(en < 0) or np.any(lv < 0):
            raise ValueError("entries and levels must be non-negative")

    @property
    def col_freqs(self) -> np.ndarray:
        return np.array([0, *self.profile.freqs], dtype=float)

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def column_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    def mass(self) -> float:
        return float(self.levels @ self.row_sums())

    def log_g(self) -> float:
        return log_g(self.entries, self.levels, self.col_freqs)

    def is_fractionally_feasible(self) -> bool:
        """Column sums `near` the counts; mass at most 1 + MASS_TOL."""
        counts = np.array(self.profile.counts, dtype=float)
        return bool(np.all(near(self.column_sums()[1:], counts)) and self.mass() <= 1.0 + MASS_TOL)

    def has_integral_row_sums(self) -> bool:
        """Every row sum near an integer (`near_integer`)."""
        return bool(np.all(near_integer(self.row_sums())))

    def to_json(self) -> str:
        return strict_json(self)


def log_g(entries, levels, col_freqs) -> float:
    """sum S_ij (m_j log r_i - log S_ij) + sum_i rowsum log rowsum, 0 log 0 = 0.

    Summed over the nonzero entries alone.  m_j log r_i is zero whenever
    m_j = 0, even at level 0, and -inf where m_j > 0 on a level r_i = 0.
    """
    s = np.asarray(entries, dtype=float)
    r = np.asarray(levels, dtype=float)
    m = np.asarray(col_freqs, dtype=float)
    if not r.all():
        if np.any(s[r == 0] @ m > 0):
            return -math.inf
        r = np.where(r > 0, r, 1.0)
    rows, cols = np.nonzero(s)
    v = s[rows, cols]
    rs = s.sum(axis=1)
    rs = rs[rs > 0]
    return float((m[cols] * v) @ np.log(r)[rows] - v @ np.log(v) + rs @ np.log(rs))


def log_h(entries, levels, col_freqs) -> float:
    """log_g plus sum_j c_j log c_j - c_j over the column sums (phi_0 included)."""
    s = np.asarray(entries, dtype=float)
    cols = s.sum(axis=0)
    pos = cols > 0
    corr = float(np.sum(cols[pos] * np.log(cols[pos]) - cols[pos]))
    return log_g(entries, levels, col_freqs) + corr


def log_g_gradient(entries, levels, col_freqs) -> np.ndarray:
    """d log_g / d S_ij = m_j log r_i + log(rowsum_i / S_ij), entries floored.

    The log term is log1p of the rest of the row over S_ij, with the rest
    summed directly: on a row dominated by one entry, log(rowsum / S_ij) is
    a difference of nearly equal numbers, and at levels r ~ 1/n^2 its error
    of one ulp moves the certificate's mass price by about 1/r ulps.
    """
    s = np.maximum(np.asarray(entries, dtype=float), _FLOOR)
    r = np.asarray(levels, dtype=float)
    m = np.asarray(col_freqs, dtype=float)
    zero = np.zeros((len(s), 1))
    before = np.cumsum(np.hstack([zero, s[:, :-1]]), axis=1)
    after = np.cumsum(np.hstack([zero, s[:, :0:-1]]), axis=1)[:, ::-1]
    return m[None, :] * np.log(r)[:, None] + np.log1p((before + after) / s)


def _linear_oracle(grad: np.ndarray, r: np.ndarray, phi: np.ndarray) -> float:
    """Upper bound on <grad, D> over D >= 0 with column sums phi (columns 1..k), mass <= 1.

    By weak duality every mass price lam at or above lam_floor =
    max(0, max_i grad_i0 / r_i) (column 0 is free, so its reduced costs must
    be non-positive) bounds the maximum by F(lam) = lam + sum_j phi_j
    max_i (grad_ij - lam r_i); this returns F(lam_floor).  It is the maximum
    at the solver's output: there grad_ij = nu_j + log z_i, so lam_floor is
    the solver's mass price (log z_i <= lam r_i, with equality on the active
    rows), each column's maximum nu_j is attained on the active rows, and
    F(lam_floor) = lam + phi . nu is the value of the solver's own matrix.
    Elsewhere it can only overstate the gap, never certify falsely.
    """
    if float(phi.sum()) * float(r[-1]) > 1.0:
        raise ValueError("infeasible: columns cannot fit under the mass constraint")
    lam = max(0.0, float(np.max(grad[:, 0] / r)))
    return lam + float(phi @ np.max(grad[:, 1:] - lam * r[:, None], axis=0))


@dataclass(frozen=True)
class SolverInfo:
    converged: bool
    gap: float
    iterations: int


def _row_compositions(expo: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log z_i(nu) and the softmax rows xi_ij of expo_ij - nu_j (nu carries nu_0 = 0)."""
    xi = expo - nu
    lz = logsumexp(xi, 1)
    xi -= lz[:, None]
    return lz, np.exp(xi, out=xi)


def _newton_step(xi, r, phi, t, rd, a, b, c, reduced=None):
    """One linearization of the KKT system in (nu, lam, t), solved on its Schur complement.

    The residuals are the column sums phi - sum_i t_i xi_i, the mass 1 - r.t
    and one row equation a_i dt_i + b_i ds_i = c_i per level, where the slack
    s_i = lam r_i - log z_i(nu) moves by ds = rd + J_i (dlam, dnu) with
    J = [r xi_1..k] (rd is the slack's own residual).  These row equations
    form a diagonal block, so a row with b_i sqrt(eps) <= |a_i| is eliminated
    through dt_i = (c_i - b_i ds_i) / a_i, a multiplier b_i / a_i of at most
    1/sqrt(eps).  The other rows stay in the system, divided by b_i: near the
    optimum those with t_i / s_i past 1/sqrt(eps) (eliminating them too
    diverges once t_i / s_i reaches 1e281), and the active rows of the
    active-set step (a = 0, b = 1; its inactive rows, a = 1, b = 0, get
    dt = 0).  The reduced matrix [[H - J_E^T diag(b/a) J_E, J_K^T],
    [J_K, diag(a/b)_K]] has side k + 1 + |K|, for eliminated rows E and kept
    rows K.  It is inverted once; pass the returned `reduced` back to reuse
    it for a second right-hand side at the same (xi, t, a, b).  A non-finite
    matrix or right-hand side raises ValueError, and an exactly singular
    matrix raises np.linalg.LinAlgError.
    """
    if reduced is None:
        jac = xi.copy()
        jac[:, 0] = r  # J = [r xi_1..k]: dlam comes first in the reduced unknowns
        k = jac.shape[1] - 1
        keep = b * _SQRT_EPS > np.abs(a)
        if keep.any():
            ainv = np.divide(1.0, a, out=np.zeros(len(r)), where=~keep)
            kept = jac[keep]
        else:  # no level kept: skip the masked division and the gathers
            keep, ainv, kept = None, 1.0 / a, jac[:0]
        side = k + 1 + len(kept)
        jt = jac.T @ t
        # H - J_E^T diag(b/a) J_E as one product and a diagonal: d colsum_j /
        # d nu is -sum_i t_i (diag(xi_i) - xi_i xi_i^T) on columns 1..k, and H
        # is zero in the lam row, which the symmetric copy restores
        weighted = (t - b * ainv)[:, None] * jac
        weighted[:, 0] -= t * r
        mat = np.zeros((side, side))
        mat[: k + 1, : k + 1] = jac.T @ weighted
        mat[0, 1 : k + 1] = mat[1 : k + 1, 0]
        mat.flat[side + 1 : (k + 1) * (side + 1) : side + 1] -= jt[1:]
        b_kept = None
        if keep is not None:
            b_kept = b[keep]
            mat[: k + 1, k + 1 :] = kept.T
            mat[k + 1 :, : k + 1] = kept
            mat.flat[(k + 1) * (side + 1) :: side + 1] = a[keep] / b_kept
        if not np.isfinite(mat).all():
            raise ValueError("KKT matrix must not contain infs or NaNs")
        top = np.concatenate(([1.0], phi)) - jt
        reduced = np.linalg.inv(mat), jac, keep, b_kept, ainv, top
    inv, jac, keep, b_kept, ainv, top = reduced
    k = jac.shape[1] - 1
    g = c - b * rd
    rhs = top - jac.T @ (g * ainv)
    if b_kept is not None:
        rhs = np.concatenate((rhs, g[keep] / b_kept))
    if not np.isfinite(rhs).all():
        raise ValueError("KKT right-hand side must not contain infs or NaNs")
    sol = inv @ rhs
    ds = rd + jac @ sol[: k + 1]
    dt = ainv * (c - b * ds)
    if b_kept is not None:
        dt[keep] = sol[k + 1 :]
    return sol[1 : k + 1], sol[0], dt, ds, reduced


def _fraction_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    return float((-v[neg] / dv[neg]).min(initial=1.0))


def maximize_log_g(
    profile: Profile,
    grid: DiscretizationSet,
    max_iter: int = G_MAX_ITER,
    return_info: bool = False,
):
    """Maximize log g over the fractional feasible set, certified by |FW gap| <= G_TOL.

    Returns the AllocationMatrix (and a SolverInfo when return_info is set;
    its `iterations` counts Newton steps, at most max_iter, and it is
    `converged` only on a fractionally feasible matrix with |gap| <= G_TOL).
    """
    r = grid.values
    phi = np.array(profile.counts, dtype=float)
    m = np.array([0, *profile.freqs], dtype=float)
    ell = len(r)
    expo = m[None, :] * np.log(r)[:, None]

    # Start: half the row mass on the empirical levels m_j/n, half spread
    # evenly over the levels; the prices put the peak of r^{m_j} e^{-nu_j - n r}
    # at r = m_j/n (a start at nu = 0 stalls on large frequencies).  The
    # column sums are left to the Newton steps, with no Sinkhorn pre-fit.
    n = float(m[1:] @ phi)
    home = np.argmin(np.abs(np.log(r)[:, None] - np.log(m[None, 1:] / n)), axis=0)
    placed = np.bincount(home, weights=phi, minlength=ell)
    t = 0.5 / (ell * r) + 0.5 * placed / (r @ placed)
    nu = np.concatenate(([0.0], m[1:] * np.log(m[1:] / n) - m[1:] + 2.0))
    lz, xi = _row_compositions(expo, nu)
    lam = float(np.max(lz / r)) + 1.0

    # Mehrotra predictor-corrector on the central path t_i s_i = mu; the slack
    # s is a variable of its own, so the dual constraints may be violated
    # until the residual rd vanishes.  t and s are views of one vector, so
    # that one fraction-to-boundary rule and one update serve both.  Once mu
    # and the primal residuals are small, rd is also done when it stops
    # halving, and the active-set step below finishes.  A symbol seen a dozen
    # times or more sits at level 1 with a sliver of unseen mass beside it,
    # 5e-8 at m = 13 and below 1e-16 at m = 30; the column sums barely see
    # its price, and rd stalls at 1e-8 to 1e-1 on the neighbouring levels
    # (on Profile((29,), (1,)) for all 100 steps).
    ts = np.concatenate((t, lam * r - lz))
    t, s = ts[:ell], ts[ell:]
    steps = 0
    last_rd = math.inf
    while steps < max_iter:
        mu = float(t @ s) / ell
        rd = lam * r - lz - s
        dual = float(np.abs(rd).max())
        if (
            ell * mu <= 1e-3 * G_TOL
            and np.abs(phi - xi[:, 1:].T @ t).max() <= 1e-12 * phi.max()
            and abs(1.0 - r @ t) <= 1e-12
            and (dual <= 1e-12 * (1.0 + lam) or not dual < 0.5 * last_rd)
        ):
            break
        last_rd = dual
        t_s = t * s
        try:
            dnu, dlam, dt, ds, reduced = _newton_step(xi, r, phi, t, rd, s, t, -t_s)
        except np.linalg.LinAlgError:
            break  # singular KKT matrix
        dts = np.concatenate((dt, ds))
        aff = ts + _fraction_to_boundary(ts, dts) * dts
        centre = (float(aff[:ell] @ aff[ell:]) / ell / mu) ** 3 * mu
        c = centre - t_s - dt * ds
        dnu, dlam, dt, ds, _ = _newton_step(xi, r, phi, t, rd, s, t, c, reduced)
        steps += 1
        dts = np.concatenate((dt, ds))
        alpha = max(0.99, 1.0 - mu) * _fraction_to_boundary(ts, dts)
        if alpha == 0.0:
            break  # a variable rounded onto its bound blocks every step from here
        # the log-sum-exp is only trusted so far: cap the price move per step
        alpha = min(alpha, 10.0 / max(float(np.abs(dnu).max()), 1e-300))
        nu[1:] += alpha * dnu
        lam, ts = lam + alpha * dlam, ts + alpha * dts
        t, s = ts[:ell], ts[ell:]
        lz, xi = _row_compositions(expo, nu)
    s_entries = t[:, None] * xi

    # The interior point ends at the analytic centre of the optimal face,
    # with dead rows at t ~ mu/s rather than zero.  Newton on the KKT
    # equations of the active set it reveals (mass share t_i r_i above the
    # relative slack s_i / (lam r_i)) removes them exactly, and runs until
    # its residual stops halving: a fixed threshold cannot tell the rounding
    # floor when prices reach 1e4.  Dead rows keep a footprint in their
    # optimal composition so that their gradients stay those of the dual
    # point.
    active = lam * r * r * t > s
    t_act = np.where(active, t, 0.0)
    # row equations of the step: s_i = 0 on the active rows, dt_i = 0 elsewhere
    rows_a, rows_b = (~active).astype(float), active.astype(float)
    last = math.inf
    while steps < max_iter:
        s = lam * r - lz
        resid = max(
            float(np.abs(phi - xi[:, 1:].T @ t_act).max()),
            abs(1.0 - r @ t_act),
            float(np.abs(s[active]).max()),
        )
        if not resid < 0.5 * last:
            break  # at the rounding floor, or no optimum on this face
        last = resid
        if resid <= 1e-9 and np.all(t_act[active] > 0.0) and np.all(s[~active] > -1e-9):
            s_entries = np.where(active, t_act, _FOOTPRINT)[:, None] * xi
        try:
            dnu, dlam, dt, _, _ = _newton_step(xi, r, phi, t_act, 0.0, rows_a, rows_b, -rows_b * s)
        except np.linalg.LinAlgError:
            break
        steps += 1
        nu[1:] += dnu
        lam, t_act = lam + dlam, t_act + dt
        lz, xi = _row_compositions(expo, nu)

    # Snap the column sums, then scale the whole matrix down until its mass
    # is within the budget, which the certificate's linear program assumes.
    # Both repairs are at the level of the solver's residuals, and a common
    # factor keeps every ratio the gradient reads.  Taking the excess off
    # column 0 alone would not: on Profile((14,), (1,)) column 0 holds
    # 1.4e-8, so an excess of 6 ulps moved it by 1e-7 and the gap by 6.6e-8.
    s_entries[:, 1:] *= phi / s_entries[:, 1:].sum(axis=0)
    mass = float(r @ s_entries.sum(axis=1))
    while mass > 1.0:
        s_entries *= (1.0 - _EPS) / mass
        mass = float(r @ s_entries.sum(axis=1))
    grad = log_g_gradient(s_entries, r, m)
    gap = _linear_oracle(grad, r, phi) - float(np.sum(grad * s_entries))
    alloc = AllocationMatrix(r.copy(), s_entries, profile)
    if return_info:
        # a gap below -G_TOL is an infeasible matrix cut off at the step cap
        certified = alloc.is_fractionally_feasible() and abs(gap) <= G_TOL
        return alloc, SolverInfo(converged=certified, gap=gap, iterations=steps)
    return alloc


def pseudo_distribution_of(alloc: AllocationMatrix) -> np.ndarray:
    """Expand integral row sums into a vector with rowsum_i copies of level r_i."""
    if not alloc.has_integral_row_sums():
        raise ValueError("row sums must be integral within 1e-9 or 16 ulps (near_integer)")
    counts = np.round(alloc.row_sums()).astype(int)
    if np.any((counts > 0) & (alloc.levels <= 0)):
        raise ValueError("positive counts on a zero probability level")
    probs = np.repeat(alloc.levels, counts)
    if probs.sum() > 1.0 + MASS_TOL:
        raise ValueError("pseudo-distribution mass exceeds 1")
    return probs
