"""What `import permpml` loads, and the log-factorials that stand in for scipy.special."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from permpml.permanent import log_permanent
from permpml.profiles import Profile, log_c_phi

SRC = Path(__file__).resolve().parents[1] / "src"

# whether any scipy module, the package itself included, is in sys.modules
SCIPY_LOADED = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"


def _fresh(code: str) -> str:
    # a fresh interpreter: this one has loaded scipy.special for the tests below
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\nimport numpy as np\n" + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy_until_bethe_takes_a_frank_wolfe_step():
    # Bethe certifies J2 by the assignment LP's dual bound, with no assignment
    # solved; seed 6 of test_bethe_reports_the_point_of_its_value (n = 7)
    # takes one Frank-Wolfe step, whose vertex scipy.optimize finds
    out = _fresh(
        f"import permpml\nprint({SCIPY_LOADED})\n"
        "print(permpml.bethe_permanent(np.ones((2, 2))).log_value)\n"
        "print('scipy.optimize' in sys.modules)\n"
        "rng = np.random.default_rng(6)\n"
        "a = rng.uniform(0, 1, (int(rng.integers(3, 12)),) * 2) ** 3\n"
        "print(a.shape[0], permpml.bethe_permanent(a).converged)\n"
        "print('scipy.optimize' in sys.modules)"
    )
    loaded, bethe, optimize_after_j2, seed6, optimize_after_seed6 = out.splitlines()
    assert loaded == "False"
    assert abs(float(bethe)) < 1e-8
    assert optimize_after_j2 == "False"
    assert seed6 == "7 True"
    assert optimize_after_seed6 == "True"


def test_pml_path_and_sinkhorn_on_a_positive_matrix_load_no_scipy():
    # the log g solve, rounding, the exact evaluation and the oracle are
    # numpy alone, and a positive matrix is one block without csgraph
    out = _fresh(
        "import permpml\n"
        "p = permpml.Profile((1, 2), (2, 1))\n"
        "print(permpml.approximate_pml(p).converged)\n"
        "print(permpml.exact_pml_oracle(p)[1] < 0.0)\n"
        "print(permpml.sinkhorn_permanent(np.ones((3, 3))).log_value > 0.0)\n"
        f"print({SCIPY_LOADED})"
    )
    assert out.splitlines() == ["True", "True", "True", "False"]


def test_supports_with_zeros_load_no_scipy():
    # the support blocks are numpy alone: a zero on the diagonal, a support
    # with no matching, blocks of ones and a triangular support load no scipy
    # module, nor does a Bethe run that takes no Frank-Wolfe step
    out = _fresh(
        "import permpml\n"
        "print(permpml.sinkhorn_permanent(np.eye(2)).log_value)\n"
        "print(permpml.sinkhorn_permanent(np.array([[0.0, 1.0], [0.0, 1.0]])).log_value)\n"
        "blocks = permpml.block_ones_matrix(12, 2)\n"
        "print(permpml.sinkhorn_permanent(blocks).converged)\n"
        "print(permpml.log_permanent(np.triu(np.ones((30, 30)))))\n"
        "r = permpml.bethe_permanent(blocks)\n"
        "print(r.iterations, r.converged)\n"
        f"print({SCIPY_LOADED})"
    )
    assert out.splitlines() == ["0.0", "-inf", "True", "0.0", "0 True", "False"]


@pytest.mark.parametrize("n", [10, 1000, 10**6])
def test_log_c_phi_matches_gammaln(n):
    # symbol counts of n uniform draws on n/2 symbols, and their profile
    counts = np.random.default_rng(n).multinomial(n, np.full(n // 2, 2.0 / n))
    freqs, mult = np.unique(counts[counts > 0], return_counts=True)
    p = Profile(tuple(freqs.tolist()), tuple(mult.tolist()))
    assert p.n == n
    reference = gammaln(n + 1) - float(np.sum(mult * gammaln(freqs + 1)))
    assert log_c_phi(p) == pytest.approx(reference, rel=1e-14)


def test_log_permanent_of_ones_is_log_factorial():
    for n in range(1, 20):
        assert log_permanent(np.ones((n, n))) == pytest.approx(math.lgamma(n + 1), rel=1e-14, abs=1e-14)


def test_lgamma_agrees_with_gammaln_on_integers():
    x = np.arange(1, 20_001)
    ours = np.array([math.lgamma(v) for v in x.tolist()])
    # at most 4 ulps apart (5.03e-16 relative at x = 3087) with glibc's lgamma
    np.testing.assert_allclose(ours, gammaln(x), rtol=1e-15, atol=0)
