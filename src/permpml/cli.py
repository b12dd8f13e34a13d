"""Command-line front end: profiles, approximate PML, permanent comparisons.

Exit codes: 0 success, 2 input/validation error, 3 flagged numerical
non-convergence (the result is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from permpml.approx import bethe_permanent, scaled_sinkhorn_permanent, sinkhorn_permanent
from permpml.approx import block_ones_matrix, k_distinct_column_matrix
from permpml.convex import G_MAX_ITER, G_TOL
from permpml.estimator import approximate_pml, exact_pml_oracle
from permpml.permanent import RYSER_LIMIT, log_permanent, matrix_from_json
from permpml.profiles import Profile, profile_of_sequence, sample_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return format(x, ".17g")


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _cmd_profile(args) -> int:
    try:
        with open(args.seq_file) as fh:
            tokens = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not tokens:
        print("error: empty input sequence", file=sys.stderr)
        return EXIT_INPUT
    _write(profile_of_sequence(tokens).to_json(), args.out)
    return EXIT_OK


def _load_profile(path: str) -> Profile:
    with open(path) as fh:
        return Profile.from_json(fh.read())


def _cmd_pml(args) -> int:
    try:
        profile = _load_profile(args.profile_file)
        if args.gamma is not None and not 0.0 < args.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if args.eps is not None and not 0.0 < args.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if args.tol <= 0:
            raise ValueError("tol must be positive")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    result = approximate_pml(
        profile, eps=args.eps, gamma=args.gamma, tol=args.tol, max_iter=args.max_iter
    )
    _write(result.to_json(), args.out)
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _cmd_perm_compare(args) -> int:
    try:
        with open(args.matrix_file) as fh:
            matrix = matrix_from_json(fh.read())
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    record = _perm_compare_record(matrix, args.tol)
    if args.format == "json":
        _write(json.dumps(record), args.out)
    else:
        _write(_record_csv(record), args.out)
    return EXIT_OK


_COMPARE_FIELDS = (
    "n", "log_perm", "log_sinkhorn", "log_scaled_sinkhorn", "log_bethe",
    "gap_bethe", "gap_scaled_sinkhorn",
)


def _perm_compare_record(matrix: np.ndarray, tol: float) -> dict:
    n = matrix.shape[0]
    exact = log_permanent(matrix) if n <= RYSER_LIMIT else None
    sink = sinkhorn_permanent(matrix, tol)
    scaled = scaled_sinkhorn_permanent(matrix, tol)
    bethe = bethe_permanent(matrix)
    return {
        "n": n,
        "log_perm": exact,
        "log_sinkhorn": sink.log_value,
        "log_scaled_sinkhorn": scaled.log_value,
        "log_bethe": bethe.log_value,
        "gap_bethe": exact - bethe.log_value if exact is not None else None,
        "gap_scaled_sinkhorn": exact - scaled.log_value if exact is not None else None,
    }


def _record_csv(record: dict) -> str:
    cells = [str(record["n"])] + [_fmt(record[f]) for f in _COMPARE_FIELDS[1:]]
    return ",".join(cells)


def _cmd_sample(args) -> int:
    try:
        with open(args.dist_file) as fh:
            obj = json.loads(fh.read())
        probs = obj["probs"] if isinstance(obj, dict) else obj
        if args.n <= 0:
            raise ValueError("n must be positive")
        seq = sample_sequence(probs, args.n, args.seed)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _write("\n".join(seq), args.out)
    return EXIT_OK


def _cmd_oracle_pml(args) -> int:
    try:
        profile = _load_profile(args.profile_file)
        q, logp = exact_pml_oracle(
            profile, max_support=args.max_support, grid_step=args.grid_step
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _write(
        json.dumps(
            {
                "distribution": [float(v) for v in q],
                "log_profile_probability": logp,
                "grid_step": args.grid_step,
            }
        ),
        args.out,
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        if not sizes or any(s < 2 for s in sizes):
            raise ValueError("sizes must be integers >= 2")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rng = np.random.default_rng(args.seed)
    records = []
    for n in sizes:
        for _ in range(args.count):
            if args.kind == "random":
                matrix = rng.uniform(0.01, 1.0, (n, n))
            elif args.kind == "block":
                matrix = block_ones_matrix(n, max(1, n // 3))
            else:
                matrix, _counts = k_distinct_column_matrix(
                    n, min(3, n), int(rng.integers(1 << 30))
                )
            records.append(_perm_compare_record(matrix, args.tol))
    if args.format == "json":
        _write(json.dumps(records), args.out)
    else:
        rows = [",".join(_COMPARE_FIELDS)] + [_record_csv(rec) for rec in records]
        _write("\n".join(rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpml",
        description="Permanent approximations and approximate profile maximum likelihood",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_profile = sub.add_parser("profile", help="profile of a newline-delimited token file")
    p_profile.add_argument("seq_file")
    p_profile.add_argument("--out")
    p_profile.set_defaults(func=_cmd_profile)

    p_pml = sub.add_parser("pml", help="approximate PML distribution for a profile JSON")
    p_pml.add_argument("profile_file")
    p_pml.add_argument("--eps", type=float, default=None)
    p_pml.add_argument("--gamma", type=float, default=None)
    p_pml.add_argument("--tol", type=float, default=G_TOL)
    p_pml.add_argument("--max-iter", type=int, default=G_MAX_ITER)
    p_pml.add_argument("--out")
    p_pml.set_defaults(func=_cmd_pml)

    p_cmp = sub.add_parser("perm-compare", help="exact vs approximate permanents as CSV")
    p_cmp.add_argument("matrix_file")
    p_cmp.add_argument("--tol", type=float, default=1e-10)
    p_cmp.add_argument("--format", choices=["json", "csv"], default="csv")
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=_cmd_perm_compare)

    p_sample = sub.add_parser("sample", help="draw an i.i.d. sample from a distribution JSON")
    p_sample.add_argument("dist_file")
    p_sample.add_argument("n", type=int)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out")
    p_sample.set_defaults(func=_cmd_sample)

    p_oracle = sub.add_parser("oracle-pml", help="exhaustive grid PML oracle (tiny n)")
    p_oracle.add_argument("profile_file")
    p_oracle.add_argument("--grid-step", type=float, default=0.02)
    p_oracle.add_argument("--max-support", type=int, default=None)
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=_cmd_oracle_pml)

    p_bench = sub.add_parser("bench", help="permanent-approximation sweep as CSV")
    p_bench.add_argument("--sizes", default="2,4,6")
    p_bench.add_argument("--count", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--kind", choices=["random", "block", "kdistinct"], default="random")
    p_bench.add_argument("--tol", type=float, default=1e-10)
    p_bench.add_argument("--format", choices=["json", "csv"], default="csv")
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
