"""Exact permanents and doubly-stochastic predicates.

These are the ground-truth oracles of the package: everything approximate is
eventually checked against them, so they must never silently degrade.
`permanent_naive` sums all n! permutation products (n <= 8) and is the
reference of the tests.  `log_coefficient` is the one exact routine: a
log-domain dynamic program over the counts of each distinct column but the
largest, or over those of the distinct rows (a permanent is also its
transpose's), whichever side is less work within hard limits on the states
and work that keep every call inside a desk-scale budget.  `log_permanent`
calls it on each fully indecomposable block of the support
(`support_blocks`), whose equal columns and rows `_distinct_columns` groups
with one sort per axis, and `profiles.profile_probability_grouped` on the
profile matrix.
`logsumexp` is the log-domain reduction of the Sinkhorn and `log g` solvers.
`strict_json` is the one JSON writer of the package and its CLI, and
`json_object` the check of every JSON object they read.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import sys
from itertools import permutations, zip_longest

import numpy as np

NAIVE_LIMIT = 8

# Hard limits of log_coefficient: the count of DP states (each a
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
    grouped into one factor (sum_j c_ij y_j)^{rho_i}; `_distinct_columns`
    groups the columns, then the rows of the distinct columns, with one
    np.lexsort each.  The coefficient is `log_coefficient`'s, which
    eliminates the column type of largest multiplicity: prod (phi_j+1)
    states over the others, exp(O(k log(N/k))) for k distinct columns
    whatever N is, or runs over the rows when that is less work, so k
    distinct rows cost the same.  A dense block with all columns and rows
    distinct has 2^(N-1) states and stops at N = 20 under the work limit; a
    sparse matrix stops only when one of its blocks does.
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
    Sinkhorn and Bethe, in numpy and plain Python.  A positive matrix is one
    block.  Otherwise a perfect matching is the identity when the diagonal has
    no zero, else `_perfect_matching`'s, and the blocks are the strongly
    connected components of the digraph of `support[:, match]`, whose rows
    each hold their own diagonal entry: equal rows reach each other, so they
    are grouped first (one np.packbits, one np.unique), and Tarjan's
    algorithm (1972) runs on the graph of the groups.
    """
    n = _require_square(support)
    if support.all():
        return np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    match = np.arange(n)
    if not support.diagonal().all():
        match = _perfect_matching(support)
        if match is None:
            return None
        support = support[:, match]
    packed = np.ascontiguousarray(np.packbits(support, axis=1))
    _, first, group = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True)
    quotient = np.zeros((len(first), len(first)), dtype=bool)
    rows, cols = np.nonzero(support[first])
    quotient[rows, group[cols]] = True
    rows, cols = np.nonzero(quotient)
    indptr = np.searchsorted(rows, np.arange(len(first) + 1)).tolist()
    row_labels = np.array(_strong_components(indptr, cols.tolist()))[group]
    col_labels = np.empty_like(row_labels)
    col_labels[match] = row_labels
    return row_labels, col_labels


def _perfect_matching(support: np.ndarray):
    """The column matched to each row by a perfect matching of `support`, or None.

    A greedy matching (each row in turn takes its first free column) grows
    by augmenting paths in Hopcroft-Karp phases (1973).  A phase's BFS runs
    from every free row at once, one layer of numpy operations over the
    dense support at a time, and stops at the first layer that reaches a
    free column; the paths of its BFS forest from those columns that share
    no row are augmented.  When the BFS reaches no free column the matching
    is maximum (Berge) and not perfect.  No recursion: N passes Python's
    recursion limit.
    """
    n = len(support)
    col_of = np.full(n, -1)  # the column matched to each row
    row_of = np.full(n, -1)  # the row matched to each column
    for i, j in enumerate(support.argmax(axis=1).tolist()):
        if row_of[j] >= 0:
            j = int(np.argmax(support[i] & (row_of < 0)))
        if support[i, j] and row_of[j] < 0:
            col_of[i], row_of[j] = j, i
    while (free := np.flatnonzero(col_of < 0)).size:
        parent = np.full(n, -1)  # the row from which the BFS reached each column
        frontier, ends = free, free[:0]
        while frontier.size and not ends.size:
            reach = support[frontier]
            cols = np.flatnonzero(reach.any(axis=0) & (parent < 0))
            parent[cols] = frontier[reach[:, cols].argmax(axis=0)]
            ends = cols[row_of[cols] < 0]
            frontier = row_of[cols]
        if not ends.size:
            return None
        used = np.zeros(n, dtype=bool)
        for j in ends.tolist():
            path = []  # (row, column) pairs from the free column back to a free row
            while j >= 0 and not used[i := int(parent[j])]:
                path.append((i, j))
                j = int(col_of[i])
            if j < 0:  # reached a free row without meeting another path
                for i, j in path:
                    used[i] = True
                    col_of[i], row_of[j] = j, i
    return col_of


def _strong_components(indptr: list[int], heads: list[int]) -> list[int]:
    """A component label per node of the digraph whose node v has edges to
    heads[indptr[v]:indptr[v + 1]]: Tarjan's algorithm (1972), with an
    explicit stack of edge iterators in place of recursion.
    """
    size = len(indptr) - 1
    index, low, label = [-1] * size, [0] * size, [-1] * size
    stack, work, labels, counter = [], [], 0, itertools.count()

    def visit(v: int) -> None:
        index[v] = low[v] = next(counter)
        stack.append(v)
        work.append((v, iter(heads[indptr[v] : indptr[v + 1]])))

    for root in range(size):
        if index[root] < 0:
            visit(root)
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:  # descend into w; v's other edges wait on its iterator
                    visit(w)
                    break
                if label[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[u := work[-1][0]]:
                    low[u] = low[v]
                if low[v] == index[v]:  # v roots a component: pop it
                    while label[v] < 0:
                        label[stack.pop()] = labels
                    labels += 1
    return label


def _dp_size(phi: list[int], rho: list[int]) -> tuple[int, int]:
    """States and work of _log_coefficient_dp(phi, ., rho).

    The states are prod_j (phi_j+1) over the column types but the (first)
    largest, and the work is states x k x sum_i min(rho_i, N), for the k
    other types of positive count and their total count N.
    """
    top = max(phi)
    rest = sum(phi) - top
    states = math.prod([c + 1 for c in phi]) // (top + 1)
    return states, states * (len(phi) - phi.count(0) - 1) * sum([c if c < rest else rest for c in rho])


def log_coefficient(phi, log_c, rho) -> float:
    """log of the coefficient of prod_j y_j^phi_j in prod_i (sum_j c_ij y_j)^rho_i.

    Row i of log_c (logs, rows distinct) has multiplicity rho_i, column type
    j count phi_j, and sum(phi) = sum(rho).  The coefficient times
    prod_j phi_j! is the permanent of the matrix with rho_i copies of row i
    and phi_j copies of column j of c, and so is the transposed one's,
    (rho, log_c.T, phi), times prod_i rho_i!.  `_log_coefficient_dp` runs on
    the side of less work by `_dp_size` (the column side on a tie), or on
    the only side within GROUPED_STATE_LIMIT and GROUPED_WORK_LIMIT; a row
    side run adds sum_i log rho_i! - sum_j log phi_j!.  With neither side
    within them, ValueError naming the cheaper side is raised before any
    state is allocated.
    """
    phi = [int(c) for c in phi]
    rho = [int(c) for c in rho]
    cols, rows = _dp_size(phi, rho), _dp_size(rho, phi)
    col_fits = cols[0] <= GROUPED_STATE_LIMIT and cols[1] <= GROUPED_WORK_LIMIT
    row_fits = rows[0] <= GROUPED_STATE_LIMIT and rows[1] <= GROUPED_WORK_LIMIT
    transposed = rows[1] < cols[1] if col_fits == row_fits else row_fits
    if not (col_fits or row_fits):
        states, work, side = (*rows, "row") if transposed else (*cols, "column")
        raise ValueError(
            f"grouped evaluation needs {states} states and {work} slice updates on its cheaper side, "
            f"the {side} side, over the limits {GROUPED_STATE_LIMIT} and {GROUPED_WORK_LIMIT}"
        )
    if not transposed:
        return _log_coefficient_dp(phi, log_c, rho)
    return _log_coefficient_dp(rho, log_c.T, phi) + _log_factorial_ratio(rho, phi)


def _log_coefficient_dp(phi: list[int], log_c: np.ndarray, rho: list[int]) -> float:
    """log_coefficient(phi, log_c, rho) over the column counts, with no guard.

    Types of count 0 are dropped.  Every monomial has degree sum(rho), so
    the type of largest count (the first of them; call it type 0) enters
    with y = 1, and what is left is the coefficient of prod_j y_j^phi_j over
    the k other types in prod_i (c_i0 + u_i)^rho_i, u_i = sum_j c_ij y_j.
    The state is its log-domain coefficient array of shape
    (phi_1+1, ..., phi_k+1), truncated at the target.  Factor i is applied
    by Horner's rule over its binomial expansion,
    acc <- C(rho_i, t) c_i0^{rho_i - t} coef + u_i acc for t = T_i down to
    0, T_i = min(rho_i, phi_1 + ... + phi_k); each multiplication by u_i is
    one unit shift, k slices that move every coefficient one step up axis j.
    All terms are positive, so nothing cancels.  Cost (`_dp_size`):
    prod_j (phi_j+1) states and sum_i T_i shifts of k slices each.
    """
    # the types of positive count, largest first; sorted is stable, also reversed
    order = sorted(range(len(phi)), key=phi.__getitem__, reverse=True)[: len(phi) - phi.count(0)]
    log_w0, log_w = log_c[:, order[0]].tolist(), log_c[:, order[1:]].tolist()
    phi = [phi[j] for j in order[1:]]
    k, rest = len(phi), sum(phi)
    powers = [min(c, rest) for c in rho]
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
    for row, lw0, count, t_max in zip(log_w, log_w0, rho, powers):
        acc = coef + _log_term(count, t_max, lw0)
        for t in range(t_max - 1, -1, -1):
            nxt = coef + _log_term(count, t, lw0)
            for wj, (dst, src) in zip(row, shifts):
                view = nxt[dst]
                np.logaddexp(view, acc[src] + wj, out=view)
            acc = nxt
        coef = acc
    return float(coef[(-1,) * k])


def _log_factorial_ratio(top: list[int], bottom: list[int]) -> float:
    """log(prod_i top_i! / prod_j bottom_j!), the counts paired largest to largest.

    A pair whose larger count a is under twice the smaller b is summed term
    by term, log(a!/b!) = sum_{b < s <= a} log s: the difference of two
    lgammas near 10^6 would cancel digits.  Otherwise that difference is
    at least about half of its larger term, and is taken.
    """
    terms = []
    for a, b in zip_longest(sorted(top, reverse=True), sorted(bottom, reverse=True), fillvalue=0):
        lo, hi = min(a, b), max(a, b)
        sign = 1.0 if a >= b else -1.0
        if hi < 2 * lo:
            terms += [sign * math.log(s) for s in range(lo + 1, hi + 1)]
        else:
            terms.append(sign * (math.lgamma(hi + 1) - math.lgamma(lo + 1)))
    return math.fsum(terms)


def _distinct_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of m and the count of each, from one np.lexsort.

    Sorted, equal columns sit side by side, and a new one starts where a
    column differs from the one before it in any entry.  `log_permanent`
    groups a block's columns with it, then the rows of the distinct columns.
    """
    m = m[:, np.lexsort(m)]
    change = np.ones(m.shape[1] + 1, dtype=bool)
    change[1:-1] = (m[:, 1:] != m[:, :-1]).any(axis=0)
    edges = np.flatnonzero(change)  # where each distinct column starts, then the end
    return m[:, edges[:-1]], edges[1:] - edges[:-1]


def _log_permanent_connected(m: np.ndarray) -> float:
    cols, phi = _distinct_columns(m)
    rows, rho = _distinct_columns(cols.T)  # the distinct rows of those, transposed
    with np.errstate(divide="ignore"):
        log_c = np.log(rows.T)
    phi = phi.tolist()
    return log_coefficient(phi, log_c, rho.tolist()) + sum(math.lgamma(f + 1) for f in phi)


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


def json_object(text: str, **kinds: type) -> dict:
    """The JSON object in `text`, whose keys `kinds` hold an `int` or a `list` of numbers.

    Numbers must fit a finite float.  Other text (a bare list; a string, `true`
    or 1e400 for a number) raises ValueError, the CLI's input error, not TypeError.
    """
    obj = json.loads(text)
    for key, kind in kinds.items():
        value = obj.get(key) if isinstance(obj, dict) else None
        items = value if type(value) is list else [value]
        numbers = all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in items)
        if type(value) is not kind or not numbers:
            want = "a list of numbers" if kind is list else "an integer"
            raise ValueError(f"expected a JSON object whose {key} is {want}")
    return obj


def matrix_to_json(a) -> str:
    """Serialize a matrix as {"rows": N, "cols": N, "data": [row-major]}."""
    m = as_matrix(a)
    return strict_json({"rows": m.shape[0], "cols": m.shape[1], "data": m.ravel()})


def matrix_from_json(text: str) -> np.ndarray:
    obj = json_object(text, rows=int, cols=int, data=list)
    rows, cols = obj["rows"], obj["cols"]
    data = np.asarray(obj["data"], dtype=float)
    if data.size != rows * cols:
        raise ValueError(f"data length {data.size} does not match {rows}x{cols}")
    return as_matrix(data.reshape(rows, cols))
