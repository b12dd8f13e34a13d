"""Benchmark of permpml: one workload per run, metrics as one JSON line.

    python3 benchmark/run.py --workload pml --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; `permpml` is imported from its
`src/` directory and from nowhere else.  The run repeats whole rounds of the
workload's operations for about `--seconds` (at least one round), checks every output
against the exact references in `reference.py`, and prints the end-to-end
metrics (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
Operations are timed in CPU time of the process, with BLAS held to one
thread, and scaled to a fixed speed of the machine by the probe in
`calibration.py`; the run's length is measured in wall time.  See README.md
in this directory for what each metric means and why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.1  # least wall time between two probes of the machine's speed
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# On a shared virtual machine the host takes the CPU away from the guest for
# stretches (steal time), which wall time counts and CPU time does not.
CLOCK = time.process_time

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import permpml; print(time.process_time() - t)"
)


def pin_blas_threads() -> None:
    """Run BLAS on one thread, so that CPU time is the time of that thread."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import permpml from the checkout's src/ and nowhere else."""
    if not (SRC / "permpml" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no permpml sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import permpml

    if Path(permpml.__file__).resolve().parent != SRC / "permpml":
        raise SystemExit(f"benchmark: imported permpml from {permpml.__file__}, not {SRC}")
    return permpml


def fresh_import_seconds() -> float:
    """CPU time of importing permpml in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least ten operations beyond it, None below 40."""
    if count < 40:
        return None
    return 100.0 * (1.0 - 10.0 / count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    sys.path.insert(0, str(HERE))
    import numpy as np
    import calibration
    import reference
    import tracing
    from workloads import KNOWN_FAULTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    make = WORKLOADS[args.workload]

    # set-up: import (timed in fresh interpreters, since this one has numpy
    # loaded already), input generation and the warm-up calls, several times
    pm = import_program()
    imports = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    prepares = []
    for _ in range(SETUP_REPEATS):
        start = CLOCK()
        workload = make(pm, args.seed)
        workload.warmup()
        prepares.append(CLOCK() - start)
    setup_s = statistics.median(imports) + statistics.median(prepares)

    selftest_failures = reference.self_test(pm)
    probe = calibration.Probe()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(pm)

    ops = workload.ops
    # per round, per operation: CPU time and the index of the last probe before it
    samples: list[list[tuple[float, int]]] = []
    round_walls: list[float] = []
    probes: list[float] = []
    last_probe = -math.inf
    failed_checks: dict[str, int] = {}
    attempted = failed = 0
    quality: list[float] = []
    started = time.perf_counter()
    # whole rounds only, and another one only if it should end in time
    while not round_walls or time.perf_counter() - started + round_walls[-1] <= args.seconds:
        outputs = [None] * len(ops)
        raised = {}
        this_round = []
        round_start = time.perf_counter()
        for j, op in enumerate(ops):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe.run())
                last_probe = time.perf_counter()
            t0 = CLOCK()
            try:
                if tracer is None:
                    outputs[j] = op.fn()
                else:
                    outputs[j] = tracer.run_op(len(samples) * len(ops) + j, op.fn)
            except Exception as exc:  # a failing operation must not end the run
                traceback.print_exc(file=sys.stderr)
                raised[j] = f"raised.{type(exc).__name__}"
            this_round.append((CLOCK() - t0, len(probes) - 1))
        samples.append(this_round)
        round_walls.append(time.perf_counter() - round_start)
        if raised:
            checks = {j: [raised[j]] for j in raised}
        else:
            checks, terms = workload.judge(outputs)
            if len(samples) == 1:
                quality = terms
        for j in range(len(ops)):
            names = checks.get(j, [])
            attempted += 1
            failed += bool(names)
            for name in names:
                failed_checks[name] = failed_checks.get(name, 0) + 1

    correct = not selftest_failures and set(failed_checks) <= KNOWN_FAULTS and bool(quality)
    rounds = len(samples)
    round_times = [sum(dt for dt, _ in this_round) for this_round in samples]
    # CPU seconds -> seconds at the reference speed of the machine: the run's
    # set-up and traced spans by the median probe, each operation by the mean
    # of the probes just before and just after it
    speed = calibration.REFERENCE_S / statistics.median(probes)

    def scaled(dt: float, before: int) -> float:
        around = probes[before : before + 2]
        return dt * calibration.REFERENCE_S / statistics.fmean(around)

    if tracer is None:
        op_times = [[scaled(*this_round[j]) for this_round in samples] for j in range(len(ops))]
        # each operation's time is its median over the rounds, so the
        # percentiles do not shift with the number of rounds that fit
        per_op = [statistics.median(times) for times in op_times]
        tail_pct = tail_percentile(len(per_op))
        metrics = {
            "setup_s": (setup_s * speed, "s"),
            "round_s": (statistics.median(sum(scaled(*s) for s in this_round) for this_round in samples), "s"),
            "op_p50_s": (statistics.median(per_op), "s"),
            "op_tail_s": (
                float(np.percentile(per_op, tail_pct)) if tail_pct else statistics.median(per_op),
                "s",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "quality_ratio_gmean": (
                math.exp(statistics.fmean(quality)) if quality else float("nan"),
                "ratio",
            ),
        }
        tail_note = f"p{tail_pct:.1f}" if tail_pct else "median (fewer than 40 operations)"
        print(f"# {args.workload}: {rounds} rounds of {len(ops)} operations; op_tail_s is the {tail_note}")
        print(f"# raw setup CPU time (s): {setup_s:.3f}")
    else:
        metrics = {
            name: (value * speed if unit == "s" else value, unit)
            for name, (value, unit) in tracer.layer_metrics(rounds).items()
        }
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        shown = trace_path.relative_to(HERE.parent)
        print(f"# {args.workload}: {rounds} traced rounds, {len(tracer.spans)} spans in {shown}")
    print("# raw round CPU times (s): " + " ".join(f"{t:.3f}" for t in round_times))
    print("# raw round wall times (s): " + " ".join(f"{t:.3f}" for t in round_walls))
    print(f"# {len(probes)} probes, median {statistics.median(probes) * 1e3:.3f} ms; times scaled by {speed:.4f}")
    for name in selftest_failures:
        print(f"# self-test failed: {name}")
    for name, count in sorted(failed_checks.items()):
        print(f"# check failed {count} times: {name}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
