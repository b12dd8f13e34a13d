"""Exact permanents and doubly-stochastic predicates.

These are the ground-truth oracles of the package: everything approximate is
eventually checked against them, so they must never silently degrade.
`permanent_naive` sums all n! permutation products (n <= 8) and is the
reference of the tests.  `log_homogeneous_coefficient` is the one exact
dynamic program: a log-domain program over the counts of each distinct
column but the largest.  `log_permanent` runs it on each fully
indecomposable block of the support (`support_blocks`), and
`profiles.profile_probability_grouped` on the profile matrix.  Hard limits
on the program's states and work keep every call inside a desk-scale budget.
`logsumexp` is the log-domain reduction of the Sinkhorn and `log g` solvers.
`strict_json` is the one JSON writer of the package and its CLI.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from itertools import permutations

import numpy as np

NAIVE_LIMIT = 8

# Hard limits of log_homogeneous_coefficient: the count of DP states (each a
# float in a few arrays of that size) and of state updates, states x k x
# shifts.  A call at the work limit takes about 2 s of CPU.  The PML
# oracle's scorer keeps its arrays to the state limit too.
GROUPED_STATE_LIMIT = 1_000_000
GROUPED_WORK_LIMIT = 100_000_000


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


@functools.cache
def _perm_indices(n: int) -> np.ndarray:
    """The n! permutations of range(n), one per row (8! rows at most); cached read-only."""
    idx = np.array(list(permutations(range(n))), dtype=np.intp)
    idx.flags.writeable = False
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


def log_permanent(a) -> float:
    """Natural log of the permanent, exact; -inf for a zero permanent.

    It is zero when no permutation fits in the support, else the product
    over the blocks of `support_blocks`.  Within a block with phi_j copies
    of each distinct column c_j, perm is prod_j phi_j! times the coefficient
    of prod_j y_j^{phi_j} in prod_rows sum_j c_ij y_j, with rho_i equal rows
    grouped into one factor (sum_j c_ij y_j)^{rho_i}.  The coefficient is
    `log_homogeneous_coefficient`'s, which eliminates the column type of
    largest multiplicity: prod (phi_j+1) states over the others,
    exp(O(k log(N/k))) for k distinct columns
    whatever N is.  A dense block with all columns distinct has 2^(N-1)
    states and stops at N = 19 under the work limit; a sparse matrix stops
    only when one of its blocks does.
    """
    m = as_matrix(a)
    blocks = support_blocks(m > 0)
    if blocks is None:
        return -math.inf
    rows, cols = blocks
    return sum((_log_permanent_connected(m[np.ix_(rows == b, cols == b)]) for b in np.unique(rows)), 0.0)


def support_blocks(support: np.ndarray):
    """Fully indecomposable blocks of the square 0/1 matrix `support` (Dulmage &
    Mendelsohn 1958): a label per row and per column, or None when no
    permutation fits.  An entry lies on a perfect matching iff its row and
    column share a label.  The one support analysis of `log_permanent`,
    Sinkhorn and Bethe.  A positive matrix is one block.  Otherwise a perfect
    matching is the identity when the diagonal has no zero, else a maximum
    bipartite matching (Hopcroft & Karp 1973), and the blocks are the strongly
    connected components of the digraph of `support[:, match]`.
    `scipy.sparse.csgraph` is imported here, off `import permpml`.
    """
    n = _require_square(support)
    if support.all():
        return np.zeros(n, dtype=np.int32), np.zeros(n, dtype=np.int32)
    from scipy.sparse import csgraph, csr_matrix

    rows, cols = np.nonzero(support)
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    match = np.arange(n)
    if not support.diagonal().all():
        graph = csr_matrix((np.ones(len(cols)), cols.astype(np.int32), indptr), shape=(n, n))
        match = csgraph.maximum_bipartite_matching(graph, perm_type="column")
        if np.any(match < 0):
            return None
    position = np.argsort(match).astype(np.int32)  # of each column in the matching
    graph = csr_matrix((np.ones(len(cols)), position[cols], indptr), shape=(n, n))
    labels = csgraph.connected_components(graph, connection="strong")[1]
    return labels, labels[position]


def log_homogeneous_coefficient(phi, log_c, rho) -> float:
    """log of the coefficient of prod_j y_j^phi_j in prod_i (sum_j c_ij y_j)^rho_i.

    Row i of log_c (logs, rows distinct) has multiplicity rho_i, column type
    j count phi_j, and sum(phi) = sum(rho).  Types of count 0 are dropped.
    Every monomial has degree sum(rho), so the type of largest count (the
    first of them; call it type 0) enters with y = 1, and what is left is
    the coefficient of prod_j y_j^phi_j over the k other types in
    prod_i (c_i0 + u_i)^rho_i, u_i = sum_j c_ij y_j.  The state is its
    log-domain coefficient array of shape (phi_1+1, ..., phi_k+1), truncated
    at the target.  Factor i is applied by Horner's rule over its binomial
    expansion, acc <- C(rho_i, t) c_i0^{rho_i - t} coef + u_i acc for
    t = T_i down to 0, T_i = min(rho_i, phi_1 + ... + phi_k); each
    multiplication by u_i is one unit shift, k slices that move every
    coefficient one step up axis j.  All terms are positive, so nothing
    cancels.

    Cost: prod_j (phi_j+1) states and sum_i T_i shifts of k slices each.  A
    call whose state count or work count (states x k x shifts) exceeds
    GROUPED_STATE_LIMIT or GROUPED_WORK_LIMIT raises ValueError before the
    state is allocated.
    """
    phi = np.asarray(phi)
    kept = np.flatnonzero(phi > 0)
    order = kept[np.argsort(-phi[kept], kind="stable")]
    log_w0, log_w = log_c[:, order[0]].tolist(), log_c[:, order[1:]]
    phi = phi[order[1:]].tolist()
    k = len(phi)
    powers = [min(int(c), sum(phi)) for c in rho]
    states = math.prod(c + 1 for c in phi)
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
    coef = np.full(tuple(c + 1 for c in phi), -math.inf)
    coef[(0,) * k] = 0.0
    for row, lw0, count, t_max in zip(log_w, log_w0, map(int, rho), powers):
        acc = coef + _log_term(count, t_max, lw0)
        for t in range(t_max - 1, -1, -1):
            nxt = coef + _log_term(count, t, lw0)
            for wj, (dst, src) in zip(row, shifts):
                np.logaddexp(nxt[dst], acc[src] + wj, out=nxt[dst])
            acc = nxt
        coef = acc
    return float(coef[(-1,) * k])


def _log_permanent_connected(m: np.ndarray) -> float:
    cols, phi = np.unique(m, axis=1, return_counts=True)
    rows, rho = np.unique(cols, axis=0, return_counts=True)
    with np.errstate(divide="ignore"):
        log_c = np.log(rows)
    return log_homogeneous_coefficient(phi, log_c, rho) + sum(math.lgamma(f + 1) for f in phi.tolist())


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


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(a) along `axis`, computed as scipy.special.logsumexp is.

    The entries equal to the maximum are taken out of the sum, so the
    result is log1p(rest / ties) + log(ties) + max, where rest sums
    exp(a - max) over the other entries and ties counts the maximal ones;
    with scipy's order of operations the two agree bit for bit.
    The log1p form keeps the relative error of a sum dominated by one entry
    at one ulp of the small terms; log(sum(exp(a - max))) would round them
    into 1 first.  Each slice must have a finite maximum (-inf entries are
    allowed).  Plain numpy, without scipy's array-API dispatch, which costs
    more than the arithmetic on the solvers' small arrays.
    """
    top = a.max(axis=axis, keepdims=True)
    at_top = a == top
    rest = np.exp(a - top)
    rest[at_top] = 0.0
    ties = at_top.sum(axis=axis)
    return (np.log1p(rest.sum(axis=axis) / ties) + np.log(ties)) + top.squeeze(axis)


def strict_json(record) -> str:
    """JSON text of `record` that strict parsers accept.

    numpy arrays and tuples are written as lists, numpy scalars as their
    Python values, dataclasses as the dict of their fields, and every float
    that is not finite (a -inf log permanent, say) as `null`, which is what
    strict parsers accept in place of NaN and Infinity.
    """
    return json.dumps(_strict(record), allow_nan=False)


def _strict(x):
    if isinstance(x, np.generic):  # a numpy scalar: its Python value
        x = x.item()
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, np.ndarray):
        return _strict(x.tolist())
    if dataclasses.is_dataclass(x):
        return {f.name: _strict(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return x


def matrix_to_json(a) -> str:
    """Serialize a matrix as {"rows": N, "cols": N, "data": [row-major]}."""
    m = as_matrix(a)
    return strict_json({"rows": m.shape[0], "cols": m.shape[1], "data": m.ravel()})


def matrix_from_json(text: str) -> np.ndarray:
    obj = json.loads(text)
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != rows * cols:
        raise ValueError(f"data length {data.size} does not match {rows}x{cols}")
    return as_matrix(data.reshape(rows, cols))
