"""Command-line front end: profiles, approximate PML, permanent comparisons.

Every command but `sample` writes one strict JSON object, and a JSON input
that is not the object its command reads (`permanent.json_object`) exits 2.

Exit codes: 0 success, 2 input/validation error, 3 flagged numerical
non-convergence (the result is still written).
"""

from __future__ import annotations

import argparse
import sys

from permpml.approx import bethe_permanent, sinkhorn_permanent
from permpml.estimator import approximate_pml, exact_pml_oracle
from permpml.permanent import json_object, log_permanent, matrix_from_json, strict_json
from permpml.profiles import Profile, profile_of_sequence, sample_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _cmd_profile(args) -> int:
    with open(args.seq_file) as fh:
        tokens = [line.strip() for line in fh if line.strip()]
    if not tokens:
        raise ValueError("empty input sequence")
    _write(profile_of_sequence(tokens).to_json(), args.out)
    return EXIT_OK


def _load_profile(path: str) -> Profile:
    with open(path) as fh:
        return Profile.from_json(fh.read())


def _cmd_pml(args) -> int:
    result = approximate_pml(_load_profile(args.profile_file))
    _write(result.to_json(), args.out)
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _cmd_perm_compare(args) -> int:
    with open(args.matrix_file) as fh:
        matrix = matrix_from_json(fh.read())
    try:
        exact = log_permanent(matrix)
    except ValueError:  # past the limits of the exact dynamic program (non-square fails below)
        exact = None
    sinkhorn = sinkhorn_permanent(matrix)
    bethe = bethe_permanent(matrix, sinkhorn=sinkhorn)  # from Sinkhorn's q: its sweeps run once
    scaled = sinkhorn.log_value - matrix.shape[0]  # scaled_sinkhorn_permanent's shift
    record = {
        "n": matrix.shape[0],
        "log_perm": exact,
        "log_sinkhorn": sinkhorn.log_value,
        "log_scaled_sinkhorn": scaled,
        "log_bethe": bethe.log_value,
        "gap_bethe": exact - bethe.log_value if exact is not None else None,
        "gap_scaled_sinkhorn": exact - scaled if exact is not None else None,
        "sinkhorn_converged": sinkhorn.converged,
        "bethe_converged": bethe.converged,
    }
    _write(strict_json(record), args.out)
    return EXIT_OK if sinkhorn.converged and bethe.converged else EXIT_NONCONVERGED


def _cmd_sample(args) -> int:
    with open(args.dist_file) as fh:
        probs = json_object(fh.read(), probs=list)["probs"]
    if args.n <= 0:
        raise ValueError("n must be positive")
    seq = sample_sequence(probs, args.n, args.seed)
    _write("\n".join(seq), args.out)
    return EXIT_OK


def _cmd_oracle_pml(args) -> int:
    profile = _load_profile(args.profile_file)
    q, logp = exact_pml_oracle(profile, max_support=args.max_support, grid_step=args.grid_step)
    record = {"distribution": q, "log_profile_probability": logp, "grid_step": args.grid_step}
    _write(strict_json(record), args.out)
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
    p_pml.add_argument("--out")
    p_pml.set_defaults(func=_cmd_pml)

    p_cmp = sub.add_parser("perm-compare", help="exact vs approximate permanents as one JSON object")
    p_cmp.add_argument("matrix_file")
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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
