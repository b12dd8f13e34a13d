"""Exact permanents and doubly-stochastic predicates.

These are the ground-truth oracles of the package: everything approximate is
eventually checked against them, so they must never silently degrade.
`permanent_naive` sums all n! permutation products (n <= 8) and is the
reference of the tests.  `log_permanent` runs a log-domain dynamic program
over the counts of each distinct column; the same program evaluates profile
probabilities (`profiles.profile_probability_grouped`).  Hard limits on its
states and work keep every call inside a desk-scale budget.
"""

from __future__ import annotations

import json
import math
from itertools import permutations

import numpy as np
from scipy.special import gammaln

NAIVE_LIMIT = 8

# Hard limits of log_coefficient: the count of DP states (each a float in a
# few arrays of that size) and of state updates, states x k x shifts.  A
# call at the work limit takes about 2 s of CPU.
GROUPED_STATE_LIMIT = 1_000_000
GROUPED_WORK_LIMIT = 100_000_000

# Permutation index arrays are cached per n (8! rows at most).
_PERM_CACHE: dict[int, np.ndarray] = {}


def as_matrix(a) -> np.ndarray:
    """Validate a dense non-negative matrix and return it as float64."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if np.any(m < 0):
        raise ValueError("matrix entries must be non-negative")
    return m


def _require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return m.shape[0]


def _perm_indices(n: int) -> np.ndarray:
    idx = _PERM_CACHE.get(n)
    if idx is None:
        idx = np.array(list(permutations(range(n))), dtype=np.intp)
        _PERM_CACHE[n] = idx
    return idx


def permanent_naive(a) -> float:
    """Permanent by summation over all n! permutations (n <= 8).

    The permutation products are accumulated with exact compensated
    summation (math.fsum), so the result is correctly rounded up to the
    error of the individual products.
    """
    m = as_matrix(a)
    n = _require_square(m)
    if n > NAIVE_LIMIT:
        raise ValueError(f"permanent_naive limited to n <= {NAIVE_LIMIT}, got {n}")
    if n == 0:
        return 1.0
    prods = m[np.arange(n), _perm_indices(n)].prod(axis=1)
    return math.fsum(prods.tolist())


def _log_term(count: int, t: int, log_w0: float) -> float:
    """log of C(count, t) w0^(count - t), the coefficient of u^t in (w0 + u)^count."""
    rest = count - t
    power = rest * log_w0 if rest else 0.0  # 0^0 = 1
    # the exact integer C(count, t): lgamma differences cancel at count ~ 10^5-10^6
    return math.log(math.comb(count, t)) + power


def log_coefficient(phi, log_w0, log_w, rho) -> float:
    """log of the coefficient of y_1^phi_1 ... y_k^phi_k in prod_i (w_i0 + u_i)^{rho_i}.

    u_i = sum_j w_ij y_j; the weights come as logs, log_w0[i] and
    log_w[i, j].  The state is the log-domain coefficient array of shape
    (phi_1+1, ..., phi_k+1), truncated at the target.  Factor i is applied
    by Horner's rule over its binomial expansion,
    acc <- C(rho_i, t) w_i0^{rho_i - t} coef + u_i acc for t = T_i down to
    0, T_i = min(rho_i, phi_1 + ... + phi_k); each multiplication by u_i is
    one unit shift, k slices that move every coefficient one step up axis
    j.  All terms are positive, so nothing cancels.

    Cost: prod_j (phi_j+1) states and sum_i T_i shifts of k slices each.  A
    call whose state count or work count (states x k x shifts) exceeds
    GROUPED_STATE_LIMIT or GROUPED_WORK_LIMIT raises ValueError before the
    state is allocated.
    """
    k = len(phi)
    phi = [int(c) for c in phi]
    shape = tuple(c + 1 for c in phi)
    powers = [min(int(c), sum(phi)) for c in rho]
    states = math.prod(shape)
    work = states * k * sum(powers)
    if states > GROUPED_STATE_LIMIT or work > GROUPED_WORK_LIMIT:
        raise ValueError(
            f"grouped evaluation needs {states} states and {work} slice updates, "
            f"over the limits {GROUPED_STATE_LIMIT} and {GROUPED_WORK_LIMIT}"
        )
    everything = (slice(None),) * k
    shifts = [
        (
            everything[:j] + (slice(1, None),) + everything[j + 1 :],
            everything[:j] + (slice(None, -1),) + everything[j + 1 :],
        )
        for j in range(k)
    ]
    coef = np.full(shape, -math.inf)
    coef[(0,) * k] = 0.0
    for row, lw0, count, t_max in zip(log_w, log_w0, map(int, rho), powers):
        acc = coef + _log_term(count, t_max, lw0)
        for t in range(t_max - 1, -1, -1):
            nxt = coef + _log_term(count, t, lw0)
            for w, (dst, src) in zip(row, shifts):
                np.logaddexp(nxt[dst], acc[src] + w, out=nxt[dst])
            acc = nxt
        coef = acc
    return float(coef[(-1,) * k])


def log_permanent(a) -> float:
    """Natural log of the permanent, exact; -inf for a zero permanent.

    With phi_j copies of each distinct column c_j, perm(A) is prod_j phi_j!
    times the coefficient of prod_j y_j^{phi_j} in prod_rows sum_j c_ij y_j.
    Every monomial has degree N, so the column type of largest multiplicity
    enters with y_0 = 1 and its power follows from the others; rho_i equal
    rows contribute (c_i0 + u_i)^{rho_i}.  The coefficient is
    `log_coefficient`'s: prod_{j>=1} (phi_j+1) states, exp(O(k log(N/k)))
    for k distinct columns whatever N is.  A dense matrix with all columns
    distinct has 2^(N-1) states and stops at N = 19 under the work limit.
    """
    m = as_matrix(a)
    n = _require_square(m)
    if n == 0:
        return 0.0
    cols, phi = np.unique(m, axis=1, return_counts=True)
    order = np.argsort(-phi, kind="stable")
    rows, rho = np.unique(cols[:, order], axis=0, return_counts=True)
    with np.errstate(divide="ignore"):
        log_c = np.log(rows)
    lc = log_coefficient(phi[order[1:]], log_c[:, 0].tolist(), log_c[:, 1:], rho)
    return lc + float(np.sum(gammaln(phi + 1.0)))


def is_doubly_stochastic(a, tol: float) -> bool:
    """True iff every row and column sum lies in [1 - tol, 1 + tol]."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(
        np.all(np.abs(m.sum(axis=0) - 1.0) <= tol)
        and np.all(np.abs(m.sum(axis=1) - 1.0) <= tol)
    )


def matrix_to_json(a) -> str:
    """Serialize a matrix as {"rows": N, "cols": N, "data": [row-major]}."""
    m = as_matrix(a)
    return json.dumps(
        {"rows": m.shape[0], "cols": m.shape[1], "data": [float(v) for v in m.ravel()]}
    )


def matrix_from_json(text: str) -> np.ndarray:
    obj = json.loads(text)
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != rows * cols:
        raise ValueError(f"data length {data.size} does not match {rows}x{cols}")
    return as_matrix(data.reshape(rows, cols))
