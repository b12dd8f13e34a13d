"""Exact permanents and doubly-stochastic predicates for small dense matrices.

These are the ground-truth oracles of the package: everything approximate is
eventually checked against them, so they must never silently degrade.  Hard
size guards keep the factorial/exponential costs inside a desk-scale budget.
"""

from __future__ import annotations

import json
import math
from itertools import permutations

import numpy as np

NAIVE_LIMIT = 8
RYSER_LIMIT = 24

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


def permanent_ryser(a) -> float:
    """Permanent via Ryser's inclusion-exclusion with Gray-code updates (n <= 24).

    O(2^n * n) time.  The alternating signs can cancel catastrophically, so
    the signed terms are accumulated with Kahan compensation.
    """
    m = as_matrix(a)
    n = _require_square(m)
    if n > RYSER_LIMIT:
        raise ValueError(f"permanent_ryser limited to n <= {RYSER_LIMIT}, got {n}")
    if n == 0:
        return 1.0
    cols = [np.ascontiguousarray(m[:, j]) for j in range(n)]
    row = np.zeros(n)
    total = 0.0
    comp = 0.0
    n_parity = n & 1
    for s in range(1, 1 << n):
        low = s & -s
        j = low.bit_length() - 1
        g = s ^ (s >> 1)
        if g & low:
            row += cols[j]
        else:
            row -= cols[j]
        term = float(np.prod(row))
        # (-1)^n (-1)^{|S|}: positive iff |S| and n share parity
        if (g.bit_count() & 1) != n_parity:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def log_permanent(a) -> float:
    """Natural log of the permanent; -inf for a zero permanent (n <= 24).

    Rows are pre-scaled by their maxima so the Ryser recursion runs on
    entries in [0, 1], which keeps intermediate products in range.
    """
    m = as_matrix(a)
    n = _require_square(m)
    if n > RYSER_LIMIT:
        raise ValueError(f"log_permanent limited to n <= {RYSER_LIMIT}, got {n}")
    if n == 0:
        return 0.0
    scale = m.max(axis=1)
    if np.any(scale == 0.0):
        return -math.inf
    p = permanent_ryser(m / scale[:, None])
    if p <= 0.0:
        return -math.inf
    return math.log(p) + float(np.sum(np.log(scale)))


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
