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
the (k+1+levels)-square KKT system) follows the central path
t_i (lam r_i - log z_i) = mu, where t_i is the row sum of level i, and a
last Newton solve on the active rows it reveals lands on the optimal face.
The returned matrix is S_ij = t_i softmax_j(m_j log r_i - nu_j); its log g
gradient is nu_j + log z_i, so its Frank-Wolfe duality gap is the interior
point's complementarity gap.  That gap, evaluated on the exact returned
matrix by a decomposed linear oracle (per column the best level under the
mass price, the breakpoint located exactly on the sorted crossing list),
certifies the result.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.special import logsumexp

from permpml.profiles import Profile

G_TOL = 1e-8
G_MAX_ITER = 100

_FLOOR = 1e-250
_FOOTPRINT = 1e-30


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


def build_discretization(n: int, eps: float | None = None) -> DiscretizationSet:
    """Grid with ratio 1+eps truncated at the first value <= 1/(2n^2).

    eps defaults to log(n)/sqrt(n).  The source derivation also instantiates
    the same grid with eps = 1/sqrt(n); both are valid here, so eps is an
    explicit parameter.
    """
    if n < 2:
        raise ValueError("discretization requires n >= 2")
    if eps is None:
        eps = math.log(n) / math.sqrt(n)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    cutoff = 1.0 / (2.0 * n * n)
    vals = [1.0]
    while vals[-1] > cutoff:
        vals.append(vals[-1] / (1.0 + eps))
    return DiscretizationSet(np.array(vals), eps, n)


def discretize(p, grid: DiscretizationSet) -> np.ndarray:
    """Round every positive probability down to the nearest grid value."""
    v = np.asarray(p, dtype=float)
    if np.any(v < 0) or v.sum() > 1.0 + 1e-12:
        raise ValueError("input must be a pseudo-distribution")
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

    def log_h(self) -> float:
        return log_h(self.entries, self.levels, self.col_freqs)

    def is_fractionally_feasible(self, tol: float = 1e-9) -> bool:
        cols = self.column_sums()
        return bool(
            np.all(np.abs(cols[1:] - np.array(self.profile.counts)) <= tol)
            and self.mass() <= 1.0 + tol
        )

    def has_integral_row_sums(self, tol: float = 1e-9) -> bool:
        rs = self.row_sums()
        return bool(np.all(np.abs(rs - np.round(rs)) <= tol))

    def to_json(self) -> str:
        return json.dumps(
            {
                "levels": [float(x) for x in self.levels],
                "entries": [[float(x) for x in row] for row in self.entries],
                "profile": json.loads(self.profile.to_json()),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "AllocationMatrix":
        obj = json.loads(text)
        return cls(
            np.asarray(obj["levels"], dtype=float),
            np.asarray(obj["entries"], dtype=float),
            Profile(tuple(obj["profile"]["freqs"]), tuple(obj["profile"]["counts"])),
        )


def log_g(entries, levels, col_freqs) -> float:
    """sum S_ij (m_j log r_i - log S_ij) + sum_i rowsum log rowsum, 0 log 0 = 0."""
    s = np.asarray(entries, dtype=float)
    r = np.asarray(levels, dtype=float)
    m = np.asarray(col_freqs, dtype=float)
    pos = s > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        # m_j log r_i is zero whenever m_j = 0, even at level 0
        w = np.where(m[None, :] == 0, 0.0, m[None, :] * np.log(np.where(r > 0, r, 1.0))[:, None])
        w = np.where((m[None, :] > 0) & (r[:, None] == 0), -np.inf, w)
    total = float(np.sum(s[pos] * w[pos])) if np.any(pos) else 0.0
    total -= float(np.sum(s[pos] * np.log(s[pos])))
    rs = s.sum(axis=1)
    rpos = rs > 0
    total += float(np.sum(rs[rpos] * np.log(rs[rpos])))
    return total


def log_h(entries, levels, col_freqs) -> float:
    """log_g plus sum_j c_j log c_j - c_j over the column sums (phi_0 included)."""
    s = np.asarray(entries, dtype=float)
    cols = s.sum(axis=0)
    pos = cols > 0
    corr = float(np.sum(cols[pos] * np.log(cols[pos]) - cols[pos]))
    return log_g(entries, levels, col_freqs) + corr


def log_g_gradient(entries, levels, col_freqs) -> np.ndarray:
    """d log_g / d S_ij = m_j log r_i + log(rowsum_i / S_ij), entries floored."""
    s = np.maximum(np.asarray(entries, dtype=float), _FLOOR)
    r = np.asarray(levels, dtype=float)
    m = np.asarray(col_freqs, dtype=float)
    rs = s.sum(axis=1)
    return m[None, :] * np.log(r)[:, None] + np.log(rs[:, None] / s)


def _linear_oracle(grad: np.ndarray, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Maximize <grad, D> over column sums phi (columns 1..k), mass <= 1.

    Lagrangian decomposition: under mass price lam each constrained column
    concentrates on argmax_i (grad_ij - lam r_i) and column 0 is active only
    at rows with grad_i0 = lam r_i.  The optimal lam is found exactly on the
    sorted list of breakpoints where some argmax changes, then leftover mass
    is distributed over the tied choices.
    """
    ell, ncols = grad.shape
    if float(phi.sum()) * float(r.min()) > 1.0:
        raise ValueError("infeasible: columns cannot fit under the mass constraint")
    g0 = grad[:, 0]
    with np.errstate(divide="ignore"):
        ratios0 = np.where(g0 > 0, g0 / r, 0.0)
    lam_floor = float(ratios0.max(initial=0.0))

    def min_mass(lam: float) -> float:
        total = 0.0
        for j in range(1, ncols):
            score = grad[:, j] - lam * r
            mx = score.max()
            tied = score >= mx - 1e-12 * (1.0 + abs(mx))
            total += phi[j - 1] * float(r[tied].min())
        return total

    if min_mass(lam_floor) <= 1.0:
        lam = lam_floor
    else:
        cands = [lam_floor]
        for j in range(1, ncols):
            gj = grad[:, j]
            dg = gj[:, None] - gj[None, :]
            dr = r[:, None] - r[None, :]
            iu = np.triu_indices(ell, 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = dg[iu] / dr[iu]
            ratio = ratio[np.isfinite(ratio) & (ratio > lam_floor)]
            cands.extend(ratio.tolist())
        cands = sorted(set(cands))
        lo, hi = 0, len(cands) - 1
        # min_mass is non-increasing in lam and <= 1 at the largest breakpoint
        while lo < hi:
            mid = (lo + hi) // 2
            if min_mass(cands[mid]) <= 1.0:
                hi = mid
            else:
                lo = mid + 1
        lam = cands[lo]

    d = np.zeros_like(grad)
    mass = 0.0
    ties: list[tuple[int, np.ndarray]] = []
    for j in range(1, ncols):
        score = grad[:, j] - lam * r
        mx = score.max()
        tied = np.where(score >= mx - 1e-9 * (1.0 + abs(mx)))[0]
        i_lo = tied[np.argmin(r[tied])]
        d[i_lo, j] = phi[j - 1]
        mass += phi[j - 1] * r[i_lo]
        if tied.size > 1:
            ties.append((j, tied))
    slack = 1.0 - mass
    if lam > 1e-15 and slack > 0.0:
        # complementary slackness: fill the remaining mass at zero marginal cost
        thresh = np.where(np.abs(g0 - lam * r) <= 1e-9 * (1.0 + lam * r))[0]
        if thresh.size:
            i = thresh[np.argmax(r[thresh])]
            d[i, 0] += slack / r[i]
            slack = 0.0
        else:
            for j, tied in ties:
                i_lo = tied[np.argmin(r[tied])]
                i_hi = tied[np.argmax(r[tied])]
                gain = r[i_hi] - r[i_lo]
                if gain <= 0:
                    continue
                move = min(phi[j - 1], slack / gain)
                d[i_lo, j] -= move
                d[i_hi, j] += move
                slack -= move * gain
                if slack <= 1e-15:
                    break
    return d


@dataclass(frozen=True)
class SolverInfo:
    converged: bool
    gap: float
    iterations: int


def _row_compositions(expo: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log z_i(nu) and the softmax rows xi_ij of expo_ij - nu_j, with nu_0 = 0."""
    shifted = expo - np.concatenate(([0.0], nu))[None, :]
    lz = logsumexp(shifted, axis=1)
    return lz, np.exp(shifted - lz[:, None])


def _newton_step(xi, r, phi, t, rd, a, b, c, lu=None):
    """One linearization of the KKT system in (nu, lam, t).

    The residuals are the column sums phi - sum_i t_i xi_i, the mass 1 - r.t
    and one row equation a_i dt_i + b_i ds_i = c_i per level, where the slack
    s_i = lam r_i - log z_i(nu) moves by ds = rd + r dlam + xi dnu (rd is the
    slack's own residual).  Pass the returned LU factors back to reuse the
    matrix for a second right-hand side; a singular matrix raises
    LinAlgWarning.
    """
    x = xi[:, 1:]
    k, ell = x.shape[1], len(r)
    if lu is None:
        kkt = np.zeros((k + 1 + ell, k + 1 + ell))
        # d colsum_j / d nu = -sum_i t_i (diag(xi_i) - xi_i xi_i^T) on columns 1..k
        kkt[:k, :k] = x.T @ (t[:, None] * x) - np.diag(x.T @ t)
        kkt[:k, k + 1 :] = x.T
        kkt[k, k + 1 :] = r
        kkt[k + 1 :, :k] = b[:, None] * x
        kkt[k + 1 :, k] = b * r
        kkt[k + 1 + np.arange(ell), k + 1 + np.arange(ell)] = a
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            lu = lu_factor(kkt)
    rhs = np.concatenate([phi - x.T @ t, [1.0 - r @ t], c - b * rd])
    sol = lu_solve(lu, rhs)
    dnu, dlam, dt = sol[:k], sol[k], sol[k + 1 :]
    return dnu, dlam, dt, rd + r * dlam + x @ dnu, lu


def _fraction_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    return min(1.0, float(np.min(-v[neg] / dv[neg]))) if np.any(neg) else 1.0


def maximize_log_g(
    profile: Profile,
    grid: DiscretizationSet,
    tol: float = G_TOL,
    max_iter: int = G_MAX_ITER,
    return_info: bool = False,
    on_iteration=None,
):
    """Maximize log g over the fractional feasible set, certified by FW gap <= tol.

    Returns the AllocationMatrix (and a SolverInfo when return_info is set;
    its `iterations` counts Newton steps, at most max_iter).  The interior
    point iterates are not primal feasible, so `on_iteration`, when given,
    receives one value: the objective of the returned matrix.
    """
    r = grid.values
    phi = np.array(profile.counts, dtype=float)
    m = np.array([0, *profile.freqs], dtype=float)
    ell = len(r)
    expo = m[None, :] * np.log(r)[:, None]

    # Start: half the row mass on the empirical levels m_j/n, half spread
    # evenly over the levels; the prices put the peak of r^{m_j} e^{-nu_j - n r}
    # at r = m_j/n (a start at nu = 0 stalls on large frequencies), then a
    # few Sinkhorn updates fit the column sums.
    n = float(m[1:] @ phi)
    home = np.argmin(np.abs(np.log(r)[:, None] - np.log(m[None, 1:] / n)), axis=0)
    placed = np.bincount(home, weights=phi, minlength=ell)
    t = 0.5 / (ell * r) + 0.5 * placed / (r @ placed)
    nu = m[1:] * np.log(m[1:] / n) - m[1:] + 2.0
    for _ in range(10):
        _, xi = _row_compositions(expo, nu)
        nu += np.log(xi[:, 1:].T @ t / phi)
    lz, xi = _row_compositions(expo, nu)
    lam = float(np.max(lz / r)) + 1.0
    s = lam * r - lz

    # Mehrotra predictor-corrector on the central path t_i s_i = mu; the slack
    # s is a variable of its own, so the dual constraints may be violated
    # until the residual rd vanishes.
    steps = 0
    while steps < max_iter:
        mu = float(t @ s) / ell
        rd = lam * r - lz - s
        if (
            ell * mu <= 1e-3 * tol
            and np.abs(phi - xi[:, 1:].T @ t).max() <= 1e-12 * phi.max()
            and abs(1.0 - r @ t) <= 1e-12
            and np.abs(rd).max() <= 1e-12 * (1.0 + lam)
        ):
            break
        try:
            dnu, dlam, dt, ds, lu = _newton_step(xi, r, phi, t, rd, s, t, -t * s)
        except LinAlgWarning:
            break  # singular KKT matrix
        alpha = min(_fraction_to_boundary(t, dt), _fraction_to_boundary(s, ds))
        mu_aff = float((t + alpha * dt) @ (s + alpha * ds)) / ell
        centre = (mu_aff / mu) ** 3 * mu
        dnu, dlam, dt, ds, _ = _newton_step(xi, r, phi, t, rd, s, t, centre - t * s - dt * ds, lu)
        steps += 1
        tau = max(0.99, 1.0 - mu)
        alpha = tau * min(_fraction_to_boundary(t, dt), _fraction_to_boundary(s, ds))
        # the log-sum-exp is only trusted so far: cap the price move per step
        alpha = min(alpha, 10.0 / max(float(np.abs(dnu).max()), 1e-300))
        nu, lam, t, s = nu + alpha * dnu, lam + alpha * dlam, t + alpha * dt, s + alpha * ds
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
            dnu, dlam, dt, _, _ = _newton_step(
                xi, r, phi, t_act, 0.0, (~active).astype(float), active.astype(float), np.where(active, -s, 0.0)
            )
        except LinAlgWarning:
            break
        steps += 1
        nu, lam, t_act = nu + dnu, lam + dlam, t_act + dt
        lz, xi = _row_compositions(expo, nu)

    # keep the mass budget, then snap the column sums; both repairs are at
    # the level of rounding error
    mass = float(r @ s_entries.sum(axis=1))
    if mass > 1.0:
        s_entries /= mass
    s_entries[:, 1:] *= phi / s_entries[:, 1:].sum(axis=0)
    grad = log_g_gradient(s_entries, r, m)
    gap = float(np.sum(grad * (_linear_oracle(grad, r, phi) - s_entries)))
    alloc = AllocationMatrix(r.copy(), s_entries, profile)
    if on_iteration is not None:
        on_iteration(alloc.log_g())
    if return_info:
        return alloc, SolverInfo(converged=gap <= tol, gap=gap, iterations=steps)
    return alloc


def pseudo_distribution_of(alloc: AllocationMatrix) -> np.ndarray:
    """Expand integral row sums into a vector with rowsum_i copies of level r_i."""
    rs = alloc.row_sums()
    rounded = np.round(rs)
    if np.any(np.abs(rs - rounded) > 1e-9):
        raise ValueError("row sums must be integral within 1e-9")
    counts = rounded.astype(int)
    if np.any((counts > 0) & (alloc.levels <= 0)):
        raise ValueError("positive counts on a zero probability level")
    probs = np.repeat(alloc.levels, counts)
    if probs.sum() > 1.0 + 1e-9:
        raise ValueError("pseudo-distribution mass exceeds 1")
    return probs
