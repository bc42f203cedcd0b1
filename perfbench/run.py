"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload conn-churn --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run, after a short untraced run that gives the
tracing overhead its baseline.  Every metric is printed as ``name value
unit``; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The library is
imported from ``src/`` next to this directory, never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from spans import LAYERS, Instrumented, Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("conn-churn", "conn-batched", "static-cc")

#: ``name -> (unit, what it measures)`` for the untraced run; an operation is
#: one update (conn-churn), one batch of 16 updates (conn-batched) or one
#: recompute (static-cc).  conn-churn and static-cc run for ``--seconds``;
#: conn-batched applies a fixed number of batches.
END_TO_END = {
    "setup_s": ("s", "median set-up: config, construction and preprocess (static-cc: the cold first recompute)"),
    "op_p50_ms": ("ms", "median operation latency"),
    "op_tail_ms": ("ms", "nearest-rank p99 operation latency (conn-batched: p98; static-cc, with too few recomputes for a tail: p50)"),
    "ops_per_s": ("1/s", "operations per second of operation time"),
    "rss_growth_mb": ("MB", "rise of the peak resident set size over set-up and the first operations"),
    "model_rounds_total": ("count", "DMPC rounds over the first operations (Table 1)"),
    "model_words_total": ("count", "words communicated over the first operations (Table 1)"),
    "model_max_active_machines": ("count", "most machines active in one round over the first operations (Table 1)"),
}


#: ``name -> (unit, what it measures)`` for the traced run; per-operation
#: values let runs that complete different numbers of operations compare.
PER_LAYER = {
    **{f"{layer}.calls": ("1/op", "calls per operation") for layer in LAYERS},
    **{f"{layer}.self_ms": ("ms/op", "self time per operation") for layer in LAYERS},
    "dynamic_mpc.connectivity.replacement.hit_ratio": ("ratio", "replacement scans that returned an offer"),
    "mpc.machine.send.words": ("words/op", "words staged by Machine.send per operation"),
    "mpc.machine.peak_used_fraction": ("ratio", "fullest machine: used words / capacity"),
    "mpc.cluster.stored_words": ("words", "largest total of stored words"),
    "queries_per_s": ("1/s", "median rate of the query blocks in the untraced run (static-cc has none)"),
    "trace.op_ms": ("ms/op", "traced time in timed regions per operation"),
    "trace.unattributed_ms": ("ms/op", "traced time outside every layer span per operation"),
    "trace.overhead_ratio": ("ratio", "traced / untraced median latency of the same first operations"),
    "failed_ops_ratio": ("ratio", "failed / attempted operations"),
    "check_s": ("s", "time spent in oracle checks, outside every timed region"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def refuse_program_overrides() -> None:
    """Exit if an environment variable would silently change the measured program."""
    overrides = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if overrides:
        sys.exit(f"perfbench: refusing to run with {', '.join(overrides)} set; each one changes the program measured")


def import_library() -> None:
    """Put ``src/`` first on the path and check that the library really comes from there."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the library from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, not from {SRC}")


def provenance() -> dict:
    try:
        import numpy
    except ImportError:
        numpy = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": None if numpy is None else numpy.__version__,
        "platform": platform.platform(),
    }


def end_to_end(workload, inputs: dict, seconds: float) -> tuple[dict, int, int]:
    from workloads import measure, percentile

    phase = measure(workload, inputs, seconds, *workload.run_ops(inputs))
    op_s = phase.op_s
    values = {
        "setup_s": statistics.median(phase.setup_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_tail_ms": percentile(op_s, workload.tail_percentile) * 1e3,
        "ops_per_s": len(op_s) / sum(op_s),
        "rss_growth_mb": phase.rss_growth_kib / 1024,
        **phase.model,
    }
    print(
        f"# {len(op_s)} operations, {len(phase.query_rates)} query blocks,"
        f" checks {phase.check_s:.3f} s",
        flush=True,
    )
    return values, phase.attempted, phase.failed


def per_layer(workload, inputs: dict, seconds: float) -> tuple[dict, int, int]:
    from workloads import measure

    # The untraced run covers the first operations only: it is the baseline
    # of the tracing overhead, compared on the same operations.
    untraced = measure(workload, inputs, 0, workload.model_ops, workload.model_ops)
    recorder = Recorder()
    with Instrumented(recorder):
        traced = measure(workload, inputs, seconds / 2, *workload.run_ops(inputs), recorder)
    ops = len(traced.op_s)
    common = min(ops, len(untraced.op_s))
    values: dict[str, float] = {}
    for index, layer in enumerate(LAYERS):
        values[f"{layer}.calls"] = recorder.calls[index] / ops
        values[f"{layer}.self_ms"] = recorder.self_s[index] * 1e3 / ops
    counters = recorder.counters
    replacement_calls = recorder.calls[LAYERS.index("dynamic_mpc.connectivity.replacement")]
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    values.update(
        {
            "dynamic_mpc.connectivity.replacement.hit_ratio": counters["replacement_hits"] / max(1, replacement_calls),
            "mpc.machine.send.words": counters["send_words"] / ops,
            "mpc.machine.peak_used_fraction": traced.peak_used_fraction,
            "mpc.cluster.stored_words": traced.stored_words,
            # static-cc asks no queries, and a run stopped by a raised error may
            # end before its first query block.
            "queries_per_s": statistics.median(untraced.query_rates) if untraced.query_rates else 0.0,
            "trace.op_ms": traced.timed_s * 1e3 / ops,
            "trace.unattributed_ms": (traced.timed_s - recorder.top_s) * 1e3 / ops,
            "trace.overhead_ratio": statistics.median(traced.op_s[:common]) / statistics.median(untraced.op_s[:common]),
            "failed_ops_ratio": failed / attempted,
            "check_s": untraced.check_s + traced.check_s,
        }
    )
    silent = [layer for layer in workload.layers if recorder.calls[LAYERS.index(layer)] == 0]
    if silent:
        raise RuntimeError(f"{workload.name}: traced run recorded no calls into {', '.join(silent)}")
    print(f"# traced {ops} operations, untraced {len(untraced.op_s)}; {len(recorder.spans)} spans kept", flush=True)
    return values, attempted, failed


def run(workload_name: str, seed: int, seconds: float, trace: int, scale=None) -> dict:
    """Run one workload and return the result object the last output line carries."""
    # workloads imports the library, so it is only imported after import_library().
    from workloads import FULL, WORKLOADS

    workload = WORKLOADS[workload_name](scale or FULL)
    inputs = workload.inputs(seed)
    if trace:
        values, attempted, failed = per_layer(workload, inputs, seconds)
        units = PER_LAYER
    else:
        values, attempted, failed = end_to_end(workload, inputs, seconds)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    refuse_program_overrides()
    import_library()
    info = provenance()
    result = run(args.workload, args.seed, args.seconds, args.trace)
    described = PER_LAYER if args.trace else END_TO_END
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}  # {described[name][1]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
