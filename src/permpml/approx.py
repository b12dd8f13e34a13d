"""Sinkhorn, scaled Sinkhorn and Bethe approximations of the permanent.

All three are maximizations over the doubly stochastic polytope restricted to
the support of the input matrix.  The Sinkhorn maximizer is the diagonal
scaling reached by alternating row/column normalization, swept as
matrix-vector products on a fixed kernel, A itself when its row and column
sums are in range; scalings that leave the range are folded into the log
domain (Schmitzer 2019).  The Sinkhorn value is read from the scalings.
The Bethe optimum is found from Sinkhorn's point by equality-constrained
Newton steps and conditional-gradient steps (the linear subproblem is an
assignment problem), each accepted by halving from the longest feasible step
until it ascends.  It is certified by a bound on the conditional-gradient gap
from the assignment LP's dual, exact at interior optima, so the assignment
solver, `scipy.optimize.linear_sum_assignment`, is imported only by the first
Bethe call that takes a conditional-gradient step: the package's one scipy
import.  All three run on the fully indecomposable blocks of the support
(`permanent.support_blocks`, numpy alone), and answer -inf without a sweep
when no permutation fits in it.

Also provides the two structured test-matrix generators used throughout the
test-suite: block-diagonal all-ones matrices and matrices with a prescribed
number of distinct columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from permpml.permanent import as_matrix, is_doubly_stochastic, logsumexp, strict_json, support_blocks

SINKHORN_TOL = 1e-10
SINKHORN_MAX_ITER = 100_000
BETHE_TOL = 1e-8
BETHE_MAX_ITER = 10_000

_TINY = 1e-300
# Sinkhorn sweeps in the log domain first when a row or column sum of A
# leaves [_SCALER_MIN, 1 / _SCALER_MIN], and folds its linear scalings into
# the log domain once one of them leaves it.
_SCALER_MIN = 1e-100


@dataclass(frozen=True)
class ApproximationReport:
    """A permanent approximation and the solver run that made it.

    `q` is the doubly stochastic point whose objective is `log_value`
    (Sinkhorn's diagonal scaling of A, or the best Bethe iterate);
    `iterations` and `residual` are the solver's own: Sinkhorn's sweeps and
    worst row-marginal error, or Bethe's ascent steps and an upper bound on
    its last Frank-Wolfe gap.
    """

    method: str  # 'sinkhorn' | 'scaled_sinkhorn' | 'bethe'
    log_value: float
    q: np.ndarray
    iterations: int
    residual: float
    converged: bool

    def to_json(self) -> str:
        fields = ("method", "log_value", "iterations", "residual", "converged")
        return strict_json({f: getattr(self, f) for f in fields})


def functional_u(a, q) -> float:
    """U(A, Q) = sum Q log(A / Q) over the support of Q.

    Conventions: 0 log(0/0) = 0 and 0 log(a/0) = 0; returns -inf when Q puts
    mass where A is zero.
    """
    am = as_matrix(a)
    qm = as_matrix(q)
    if am.shape != qm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {qm.shape}")
    if not is_doubly_stochastic(qm, 1e-8):
        raise ValueError("q must be doubly stochastic within 1e-8")
    return _u_value(am, qm)


def _u_value(am: np.ndarray, qm: np.ndarray) -> float:
    pos = qm > 0
    if np.any(pos & (am <= 0)):
        return -math.inf
    qp = qm[pos]
    return float(np.sum(qp * np.log(am[pos] / qp)))


def functional_v(q) -> float:
    """V(Q) = sum (1 - Q) log(1 - Q), with 0 log 0 = 0; lies in [-N, 0]."""
    qm = as_matrix(q)
    if np.any(qm > 1.0 + 1e-12):
        raise ValueError("entries must lie in [0, 1]")
    return _v_value(qm)


def _v_value(qm: np.ndarray) -> float:
    u = np.clip(1.0 - qm, 0.0, None)
    pos = u > 0
    return float(np.sum(u[pos] * np.log(u[pos])))


def _f_value(am: np.ndarray, qm: np.ndarray) -> float:
    return _u_value(am, qm) + _v_value(qm)


def _within_blocks(am: np.ndarray):
    """am with the entries between its blocks zeroed, and its column labels; None with no blocks."""
    blocks = support_blocks(am > 0)
    return None if blocks is None else (np.where(blocks[0][:, None] == blocks[1], am, 0.0), blocks[1])


def sinkhorn_scale(a) -> ApproximationReport:
    """Alternating row/column normalization until the worst row-marginal error <= SINKHORN_TOL.

    Returns the Sinkhorn report, q being the scaling of A reached.  Each
    sweep ends on the column step, so the column sums are 1 to within an
    ulp.  Runs on the blocks of the support, where a scaling exists
    (Sinkhorn & Knopp 1967); with no perfect matching none does: ValueError.
    """
    reduced = _within_blocks(as_matrix(a))
    if reduced is None:
        raise ValueError("no permutation fits in the support: no doubly stochastic scaling exists")
    return _scale(reduced[0])


def _outside_scaler_range(x: np.ndarray) -> bool:
    return x.min() < _SCALER_MIN or x.max() > 1.0 / _SCALER_MIN


def _scale(am: np.ndarray) -> ApproximationReport:
    """`sinkhorn_scale` on a matrix whose entries all lie in its blocks.

    Sweeps are linear on a kernel K, u = 1/(K v) then v = 1/(K^T u), with
    the iterate diag(u) K diag(v).  The kernel starts as A itself, with
    u = v = 1, when A's row and column sums lie in [_SCALER_MIN,
    1/_SCALER_MIN]; from there a linear sweep is the log-domain one.  When
    they do not, or when an entry of u or v leaves that range, the next
    sweep runs in the log domain: log v is folded into logr, logl and logr
    are recomputed by log-sum-exps over log A, and K is rebuilt as
    exp(logl + log A + logr), the iterate reached, with u = v = 1.  So badly
    scaled inputs cannot overflow and kernel entries that had underflowed
    come back (Schmitzer 2019).  No linear sweep takes an exp or a log of an
    N x N array, and log A is built by the first log-domain sweep.  The
    residual is read from the row sums alone.  Ill-conditioned inputs can
    still use up all the sweeps; the last iterate's residual exposes it
    (converged=False).

    The iterate is q = A exp(L_i + R_j) with L = logl + log u and
    R = logr + log v, so U(A, q) = sum q log(A / q) is -(L . r + R . c) for
    its row and column sums r and c, at any sweep: the value costs no log
    of an N x N array.
    """
    n = len(am)
    if n == 0:  # the empty matrix: its permanent, 1, is exact
        return ApproximationReport("sinkhorn", 0.0, am, 0, 0.0, True)
    kernel = am
    loga = None
    logl = logr = np.zeros(n)
    uv = np.ones(2 * n)  # u and v in one buffer, for one range test
    u, v = uv[:n], uv[n:]
    kv = am.sum(axis=1)
    absorb = _outside_scaler_range(kv) or _outside_scaler_range(am.sum(axis=0))
    residual = math.inf
    iterations = 0
    for it in range(1, SINKHORN_MAX_ITER + 1):
        if absorb:
            if loga is None:
                with np.errstate(divide="ignore"):
                    loga = np.where(am > 0, np.log(np.where(am > 0, am, 1.0)), -np.inf)
            # fold v into logr; the row step recomputes logl, which absorbs u
            logr = logr + np.log(v)
            logl = -logsumexp(loga + logr[None, :], 1)
            logr = -logsumexp(loga + logl[:, None], 0)
            kernel = np.exp(logl[:, None] + loga + logr[None, :])
            uv.fill(1.0)
            row_sums = kv = kernel.sum(axis=1)
        else:
            np.divide(1.0, kv, out=u)
            np.divide(1.0, u @ kernel, out=v)
            kv = kernel @ v
            row_sums = u * kv
        residual = float(np.abs(row_sums - 1.0).max())
        iterations = it
        if residual <= SINKHORN_TOL:
            break
        absorb = _outside_scaler_range(uv)
    q = u[:, None] * kernel * v[None, :]
    # 0.0 - x rather than -x, so that an exact 0 (a permutation matrix A) is 0.0, not -0.0
    log_value = 0.0 - float((logl + np.log(u)) @ q.sum(axis=1) + (logr + np.log(v)) @ q.sum(axis=0))
    return ApproximationReport("sinkhorn", log_value, q, iterations, residual, residual <= SINKHORN_TOL)


def sinkhorn_permanent(a) -> ApproximationReport:
    """exp(max_Q U(A, Q)): an e^N over-estimate of the permanent, exact (-inf) when it is 0.

    The report of `sinkhorn_scale`, or with no perfect matching the exact
    -inf, with 0 sweeps, residual 0, converged, q all zeros.
    """
    am = as_matrix(a)
    reduced = _within_blocks(am)
    if reduced is None:
        return ApproximationReport("sinkhorn", -math.inf, np.zeros_like(am), 0, 0.0, True)
    return _scale(reduced[0])


def scaled_sinkhorn_permanent(a) -> ApproximationReport:
    """exp(max_Q U(A, Q) - N): a lower bound on the permanent.

    The Sinkhorn report with its value shifted by -N.
    """
    report = sinkhorn_permanent(a)
    return replace(report, method="scaled_sinkhorn", log_value=report.log_value - report.q.shape[0])


def _bethe_gradient(am: np.ndarray, qm: np.ndarray, support: np.ndarray) -> np.ndarray:
    q = np.clip(qm, _TINY, 1.0 - 1e-16)
    return np.where(support, np.log(np.where(support, am, 1.0)) - np.log(q) - np.log1p(-q) - 2.0, 0.0)


def _assignment_vertex(score: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Permutation matrix within the support maximizing the linear score.

    Entries off the support are forbidden (cost inf), so some permutation
    must fit in the support.
    """
    from scipy.optimize import linear_sum_assignment  # here, so `import permpml` skips it

    rows, cols = linear_sum_assignment(np.where(support, -score, np.inf))
    vertex = np.zeros_like(score)
    vertex[rows, cols] = 1.0
    return vertex


def _gap_bound(grad: np.ndarray, support: np.ndarray, qm: np.ndarray) -> float:
    """An upper bound on the Frank-Wolfe gap max_P <grad, P - qm> over permutations P in the support.

    By weak duality for the assignment LP, any u, v with u_i + v_j >= grad_ij
    on the support bound every permutation's score by sum u + sum v.  Row
    maxima, then column maxima of grad - u, then row maxima of grad - v give
    such a pair in O(N^2); the bound is exact when grad = a_i + b_j on a
    full support, as the KKT conditions make it at an interior optimum.
    """
    g = np.where(support, grad, -np.inf)
    # initial=-inf: the empty matrix's reductions run over an empty axis
    v = (g - g.max(axis=1, initial=-np.inf)[:, None]).max(axis=0, initial=-np.inf)
    u = (g - v[None, :]).max(axis=1, initial=-np.inf)
    return float(u.sum() + v.sum() - np.sum(grad * qm))


def _bethe_newton_direction(qm: np.ndarray, support: np.ndarray, grad: np.ndarray, free: np.ndarray):
    """Equality-constrained Newton step for F on the support entries.

    The Hessian of F is diagonal on the support, h = -1/Q + 1/(1-Q), and
    indefinite: F is concave only on the doubly stochastic affine slice.
    With w = 1/h the step is d = -(g + a_i + b_j) w, and the marginal
    constraints on d leave a system for the row and column multipliers a, b
    that is singular once per block: b = 0 on each block's column outside
    `free`.  Returns the full-matrix step, or None when some Q = 1/2
    (w infinite) or the system is singular.
    """
    n = qm.shape[0]
    q = np.clip(qm, _TINY, 1.0 - 1e-16)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(support, q * (1.0 - q) / (2.0 * q - 1.0), 0.0)
    if not np.all(np.isfinite(w)):
        return None
    gw = grad * w
    wc = w[:, free]
    m = n + wc.shape[1]
    schur = np.zeros((m, m))
    # w.sum(axis=0)[free], not wc.sum(axis=0): the sums of the copy differ in the last ulp
    schur.flat[:: m + 1] = np.concatenate([w.sum(axis=1), w.sum(axis=0)[free]])
    schur[:n, n:] = wc
    schur[n:, :n] = wc.T
    rhs = np.concatenate(
        [qm.sum(axis=1) - 1.0 - gw.sum(axis=1), (qm.sum(axis=0) - 1.0 - gw.sum(axis=0))[free]]
    )
    try:
        mult = np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError:
        return None
    b = np.zeros(n)
    b[free] = mult[n:]
    return -(grad + mult[:n, None] + b[None, :]) * w


def _ascent_step(am: np.ndarray, qm: np.ndarray, d: np.ndarray, floor: float):
    """The point qm + t d with F >= floor, halving t from the longest feasible step.

    t starts at min(1, 0.995 x the longest step that keeps every entry in
    [0, 1]), so a full step is taken when it is feasible and a Frank-Wolfe
    direction vertex - qm is first tried 0.995 of the way to the vertex.
    Returns (point, F), or None when 60 halvings (down to about 1e-18 of the
    first try) all fall below floor.
    """
    shrink, grow = d < 0, d > 0
    t = min(1.0, 0.995 * float(np.min(qm[shrink] / -d[shrink], initial=np.inf)))
    t = min(t, 0.995 * float(np.min((1.0 - qm[grow]) / d[grow], initial=np.inf)))
    for _ in range(60):
        cand = qm + t * d
        f_new = _f_value(am, cand)
        if f_new >= floor:
            return cand, f_new
        t *= 0.5
    return None


def bethe_permanent(a, on_iteration=None, sinkhorn=None) -> ApproximationReport:
    """exp(max_Q U(A, Q) + V(Q)) by Newton and Frank-Wolfe ascent steps.

    Starts at Sinkhorn's q (same support, finite objective).  Plain
    conditional gradient zigzags near the (interior) optimum, so each round
    tries an equality-constrained Newton step first, and a Frank-Wolfe step
    towards the assignment vertex when Newton does not improve; both are
    accepted by `_ascent_step`.  F is concave on the polytope (Vontobel
    2013), so the value is certified by a Frank-Wolfe gap <= BETHE_TOL
    whichever steps were taken.  The gap is bounded from the assignment LP's
    dual (`_gap_bound`), which needs no assignment solve and is exact at an
    interior optimum; the assignment is solved only when a Frank-Wolfe step
    is about to be taken, and its exact gap then decides when it is the
    smaller.  `on_iteration`, when given, receives the best objective after
    every step; it never decreases.  The report's q is the first point of
    that best objective, its log_value that objective exactly.  It counts the
    steps and carries the last iterate's gap bound as its residual, never
    below that iterate's exact gap: F(best) + residual still bounds the
    optimum, as F(best) >= F(last).  `sinkhorn`, when given, is
    `sinkhorn_permanent(a)`'s report, whose q is the start, so that a caller
    holding it does not pay the Sinkhorn sweeps twice.

    It runs on the blocks of the support (`permanent.support_blocks`).  With
    no perfect matching no doubly stochastic point lies on the support: the
    report is the exact -inf, 0 steps, residual 0, converged, q all zeros.
    """
    am = as_matrix(a)
    reduced = _within_blocks(am)
    if reduced is None:
        return ApproximationReport("bethe", -math.inf, np.zeros_like(am), 0, 0.0, True)
    am, col_labels = reduced
    n = len(am)
    support = am > 0
    free = np.ones(n, dtype=bool)  # Newton pins the last column of each block
    free[n - 1 - np.unique(col_labels[::-1], return_index=True)[1]] = False
    if sinkhorn is None:
        qm = _scale(am).q
    elif sinkhorn.q.shape == am.shape:
        qm = sinkhorn.q
    else:
        raise ValueError(f"the Sinkhorn report is of a {sinkhorn.q.shape} matrix, not {am.shape}")
    f_cur = _f_value(am, qm)
    best_q, best_f = qm, f_cur
    allow_newton = True
    steps = 0
    gap = math.inf
    while steps < BETHE_MAX_ITER:
        grad = _bethe_gradient(am, qm, support)
        gap = _gap_bound(grad, support, qm)
        if gap <= BETHE_TOL:
            break

        noise = 1e-12 * (1.0 + abs(f_cur))
        step = None
        if allow_newton:
            delta = _bethe_newton_direction(qm, support, grad, free)
            # a sane Newton step never exceeds the polytope diameter; huge
            # steps are the ill-conditioned boundary regime, FW's territory
            if delta is not None and np.any(delta) and np.abs(delta).max() <= n:
                # near the optimum the improvement underflows while the gap
                # is still linear in position error: tolerate noise
                step = _ascent_step(am, qm, delta, f_cur - noise)
        if step is not None:
            # a within-noise step means Newton has stopped making progress:
            # take a Frank-Wolfe step next round, whose gap contraction is
            # guaranteed and cannot cycle
            allow_newton = step[1] > f_cur + noise
        else:
            direction = _assignment_vertex(grad, support) - qm
            gap = min(gap, float(np.sum(grad * direction)))
            if gap <= BETHE_TOL:
                break
            step = _ascent_step(am, qm, direction, f_cur)
            if step is None:
                break  # numerically stalled on both step types
            allow_newton = True
        qm, f_cur = step
        steps += 1
        if f_cur > best_f:
            best_q, best_f = qm, f_cur
        if on_iteration is not None:
            on_iteration(best_f)
    return ApproximationReport("bethe", best_f, best_q, steps, gap, gap <= BETHE_TOL)


def block_ones_matrix(n: int, k: int) -> np.ndarray:
    """Block-diagonal matrix of k all-ones blocks of size n//k plus a remainder block.

    The worst-case instance for Bethe: log perm - log bethe grows like
    k log(n/k).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    m = n // k
    out = np.zeros((n, n))
    for b in range(k):
        out[b * m : (b + 1) * m, b * m : (b + 1) * m] = 1.0
    r = n - k * m
    if r:
        out[k * m :, k * m :] = 1.0
    return out


def k_distinct_column_matrix(n: int, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Random n x n positive matrix with exactly k distinct columns.

    Draws k positive columns and replicates them with random multiplicities
    summing to n.  Returns (matrix, multiplicities).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    cols = rng.uniform(0.1, 1.0, size=(n, k))
    if k == 1:
        counts = np.array([n])
    else:
        cuts = np.sort(rng.choice(n - 1, size=k - 1, replace=False) + 1)
        counts = np.diff(np.concatenate(([0], cuts, [n])))
    out = np.repeat(cols, counts, axis=1)
    return out, counts
