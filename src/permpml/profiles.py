"""Profiles of sample sequences and exact profile-probability oracles.

A profile is the multiset of distinct nonzero symbol frequencies with their
multiplicities; it forgets symbol identities.  The probability of observing a
profile under a (pseudo-)distribution factors through the permanent of the
profile probability matrix, which is what the whole pipeline approximates.

``profile_probability_grouped`` evaluates it exactly; the profile matrix has
at most k+1 distinct columns (the unseen frequency and the k observed ones)
and one distinct row per distinct value of q.  ``permanent.log_coefficient``
runs its dynamic program over the counts of either, with the type of
largest count eliminated, whatever the domain size is, on the side of less
work: an output with few distinct values is exact even when the profile has
many frequencies.  Calls past the program's hard limits on both sides raise
ValueError before any work is done.
``profile_probability_bruteforce`` enumerates raw sequences (tiny n only)
and ``profile_probability_matrix`` builds the paper's N x N matrix; both are
references for the tests.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from permpml.permanent import json_object, log_coefficient, strict_json

BRUTEFORCE_N = 8
BRUTEFORCE_DOMAIN = 5

# "Total mass at most one" for every stage: check_pseudo_distribution, fractional
# feasibility, pseudo_distribution_of and exact_pml_oracle's grid_step rule.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class Profile:
    """Distinct nonzero frequencies (increasing) with their multiplicities.

    Integral floats and numpy integers are accepted and stored as Python ints.
    """

    freqs: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.freqs) != len(self.counts) or not self.freqs:
            raise ValueError("freqs and counts must be equal-length and non-empty")
        if any(f < 1 or int(f) != f for f in self.freqs):
            raise ValueError("frequencies must be positive integers")
        if any(c < 1 or int(c) != c for c in self.counts):
            raise ValueError("multiplicities must be positive integers")
        if any(b <= a for a, b in zip(self.freqs, self.freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        object.__setattr__(self, "freqs", tuple(int(f) for f in self.freqs))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def n(self) -> int:
        """Total sample count."""
        return sum(m * c for m, c in zip(self.freqs, self.counts))

    @property
    def k(self) -> int:
        """Number of distinct observed frequencies."""
        return len(self.freqs)

    @property
    def observed(self) -> int:
        """Number of distinct observed symbols."""
        return sum(self.counts)

    def to_json(self) -> str:
        return strict_json(self)  # its fields, as from_json reads them

    @classmethod
    def from_json(cls, text: str) -> "Profile":
        obj = json_object(text, freqs=list, counts=list)
        return cls(tuple(obj["freqs"]), tuple(obj["counts"]))


def profile_of_sequence(seq) -> Profile:
    """Profile of a sequence of hashable symbols."""
    tokens = list(seq)
    if not tokens:
        raise ValueError("cannot take the profile of an empty sequence")
    freq_of_freq = Counter(Counter(tokens).values())
    freqs = sorted(freq_of_freq)
    return Profile(tuple(freqs), tuple(freq_of_freq[f] for f in freqs))


def check_pseudo_distribution(q) -> np.ndarray:
    """Validate a non-negative weight vector with total mass <= 1."""
    v = np.asarray(q, dtype=float)
    if v.ndim != 1:
        raise ValueError("pseudo-distribution must be a 1-d vector")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("pseudo-distribution entries must be finite and non-negative")
    if v.sum() > 1.0 + MASS_TOL:
        raise ValueError(f"total mass {v.sum()} exceeds 1")
    return v


def log_c_phi(p: Profile) -> float:
    """log of the sequence-count factor n! / prod_j (m_j!)^{phi_j}."""
    return math.lgamma(p.n + 1) - sum(
        c * math.lgamma(m + 1) for m, c in zip(p.freqs, p.counts)
    )


def profile_probability_matrix(q, p: Profile) -> np.ndarray:
    """N x N matrix, N = len(q), with phi_j columns equal to q^{m_j} per frequency.

    Column layout: N - observed all-ones columns for the unseen frequency 0
    first (0^0 = 1 keeps rows of probability zero supported), then phi_j
    columns of q^{m_j} in increasing frequency order.
    """
    v = check_pseudo_distribution(q)
    unseen = len(v) - p.observed
    if unseen < 0:
        raise ValueError(f"domain size {len(v)} < observed symbols {p.observed}")
    col_freqs = np.repeat(np.concatenate(([0], p.freqs)), np.concatenate(([unseen], p.counts)))
    return np.power(v[:, None], col_freqs[None, :])


def profile_probability_bruteforce(q, p: Profile) -> float:
    """log P(q, phi) by enumerating every length-n sequence (n <= 8, |D| <= 5)."""
    v = check_pseudo_distribution(q)
    n = p.n
    d = len(v)
    if n > BRUTEFORCE_N:
        raise ValueError(f"brute force limited to n <= {BRUTEFORCE_N}")
    if d > BRUTEFORCE_DOMAIN:
        raise ValueError(f"brute force limited to domains <= {BRUTEFORCE_DOMAIN}")
    want = Counter(dict(zip(p.freqs, p.counts)))
    terms = []
    for seq in itertools.product(range(d), repeat=n):
        freq = np.bincount(seq, minlength=d)
        have = Counter(int(f) for f in freq if f > 0)
        if have == want:
            terms.append(float(np.prod(v**freq)))
    total = math.fsum(terms)
    return math.log(total) if total > 0 else -math.inf


def profile_probability_grouped(q, p: Profile) -> float:
    """log P(q, phi), exact; -inf when q has fewer positive entries than p.observed.

    Groups equal probability values: with L distinct positive values r_i of
    multiplicities rho_i, P is C_phi times the coefficient of
    y_0^{phi_0} y_1^{phi_1} ... y_k^{phi_k} in
    prod_i (y_0 + sum_{j>=1} r_i^{m_j} y_j)^{rho_i}, where the unseen count
    phi_0 = sum_i rho_i - observed.  Entries of q equal to 0 drop out: such
    a symbol can only be unseen, so with u unseen columns it multiplies both
    the permanent and its divisor u! by u.
    `permanent.log_coefficient` computes the coefficient, over the counts
    phi_j or over the counts rho_i, whichever is less work.  A call past
    GROUPED_STATE_LIMIT or GROUPED_WORK_LIMIT on both sides raises
    ValueError, naming the cheaper side, before the state is allocated.
    """
    v = check_pseudo_distribution(q)
    values, rho = np.unique(v[v > 0], return_counts=True)
    unseen = int(rho.sum()) - p.observed
    if unseen < 0:
        return -math.inf  # fewer possible symbols than observed ones
    log_c = np.log(values)[:, None] * np.array([0, *p.freqs], dtype=float)
    return log_c_phi(p) + log_coefficient([unseen, *p.counts], log_c, rho.tolist())


def sample_sequence(q, n: int, seed) -> list[str]:
    """n i.i.d. draws from a normalized distribution, reproducible from seed."""
    v = check_pseudo_distribution(q)
    if abs(v.sum() - 1.0) > 1e-9:
        raise ValueError("sample_sequence requires a normalized distribution")
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(v), size=n, p=v / v.sum())
    return [f"s{i}" for i in draws]
