"""The coordination ledger: this repo's benchmark (see README.md).

    python3 benchmarks/ledger/run.py --workload NAME --seed S \\
        --seconds N --trace 0|1 [--scale X]
    python3 benchmarks/ledger/run.py --all [--repeat N] [--out FILE]
    python3 benchmarks/ledger/run.py --pin
    python3 benchmarks/ledger/run.py compare A.json B.json

One workload runs per interpreter.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is non-zero when a check
failed, a child outlived its run, or a workload timed out.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

LEDGER_DIR = Path(__file__).resolve().parent
SOURCE = LEDGER_DIR.parents[1] / "src"
for entry in (LEDGER_DIR, SOURCE):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import harness  # noqa: E402  (stdlib only; `workloads` imports repro)

DEFAULT_SEED = 12
#: Wall-clock limit of one workload run under ``--all``.
WORKLOAD_TIMEOUT = 180
EXPECTED = LEDGER_DIR / "expected.json"


# ----------------------------------------------------------------------
# one epoch
# ----------------------------------------------------------------------

def run_epoch(workload, index: int, traced: bool, calibration) -> dict:
    """Boot a fresh service, drive the measured pass (with a
    calibration sample on either side), read outcomes and counters,
    tear the service down."""
    # The previous epoch's engine is a large cyclic structure; collect
    # it outside the measured region.
    gc.collect()
    start = time.perf_counter()
    session = workload.boot(index)
    boot_seconds = time.perf_counter() - start
    rec = harness.Recorder(traced)
    layer: dict = {}
    try:
        calibration.sample()
        workload.drive(session, rec)
        calibration.sample()
        outcome = workload.outcome(session)
        rss = harness.peak_rss_mib("self") + sum(
            harness.peak_rss_mib(pid) for pid in rec.child_pids)
        if traced:
            layer.update(workload.published(session))
    finally:
        layer.update(workload.shutdown(session, traced))
    if traced:
        totals = harness.span_seconds_by_name(rec.spans)
        for name, seconds in totals.items():
            if name.startswith(("engine.", "shard.")):
                layer[f"{name}_s"] = seconds
        for name, cuts in (
                ("server.submit", (("submit_rtt_p50_ms", 0.5),
                                   ("submit_rtt_p95_ms", 0.95))),
                ("server.run_batch", (("run_batch_rtt_p50_ms", 0.5),)),
                ("server.event_drain", (("event_drain_p50_ms", 0.5),))):
            durations = [(end - begin) / 1e6
                         for _, span, begin, end, _, _ in rec.spans
                         if span == name]
            for key, quantile in cuts if durations else ():
                layer[f"server.{key}"] = harness.percentile(durations,
                                                            quantile)
        engine_calls = sum(seconds for name, seconds in totals.items()
                           if name.startswith("engine."))
        if engine_calls:
            layer["engine.self_s"] = engine_calls - sum(
                layer.get(f"engine.{phase}_s", 0.0)
                for phase in ("graph", "match", "db"))
        layer["loadgen.self_share"] = (
            harness.loadgen_seconds(rec.spans) / rec.wall_seconds)
    return {
        "traced": traced,
        "start": rec.start_ns / 1e9,
        "wall": rec.wall_seconds,
        "cpu": rec.cpu_end - rec.cpu_start,
        "rss": rss,
        "ops": [ns / 1e6 for ns in rec.op_ns],
        "failed_ops": rec.failed_ops,
        "boot": boot_seconds,
        "outcome": outcome,
        "layer": layer,
        "spans": rec.spans,
    }


# ----------------------------------------------------------------------
# one workload run
# ----------------------------------------------------------------------

def check_outcomes(workload, epochs, reference, pinned: bool) -> list:
    """Every disagreement between what the epochs did and what they
    should have done (empty when the run is correct)."""
    problems: list = []
    for index, epoch in enumerate(epochs):
        problems.extend(f"epoch {index}: {problem}"
                        for problem in epoch["outcome"].check())
    digests = {epoch["outcome"].digest() for epoch in epochs}
    if len(digests) > 1:
        problems.append("epochs of identical inputs disagree on their "
                        "outcome digest")
    first = epochs[0]["outcome"]
    if reference is not None and first.answered != reference.answered:
        problems.append(
            f"answered {len(first.answered)} ids; the in-process leg "
            f"of the same inputs answered {len(reference.answered)}")
    if pinned:
        expected = json.loads(EXPECTED.read_text()).get(workload.name)
        got = {"input": workload.input_digest(),
               "outcome": first.digest()}
        if expected != got:
            problems.append(f"pinned digests differ: expected "
                            f"{expected}, got {got}")
    return problems


def run_workload(args, declaration: dict) -> tuple:
    """Returns the result object and, beside it, what the report line
    prints but the result contract has no key for."""
    from workloads import WORKLOADS, Dataset

    workdir = harness.OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        dataset = Dataset(args.scale)
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](dataset, args.seed,
                                            args.scale, workdir)
        generate_seconds = time.perf_counter() - start

        # Warm-up: the paired in-process leg where the shape has one
        # (it also supplies the reference answers), else one
        # throwaway epoch.  Either fills the plan and compile caches.
        calibration = harness.Calibration()
        start = time.perf_counter()
        reference = workload.reference()
        if reference is None:
            run_epoch(workload, -1, False, calibration)
        warmup_seconds = time.perf_counter() - start
        calibration.samples_ms.clear()

        harness.freeze_dataset()
        epochs: list = []
        # A median needs three epochs, a traced run two pairs;
        # `--seconds 0` (pinning, the smoke test) means "one of each".
        min_epochs = ((3, 4) if args.seconds else (1, 2))[args.trace]
        pass_start = time.perf_counter()
        while True:
            # A traced run interleaves untraced and traced epochs
            # (U T T U ..., so neither kind always runs first); the
            # gap between them is the tracing overhead.
            epochs.append(run_epoch(
                workload, len(epochs),
                bool(args.trace) and len(epochs) % 4 in (1, 2),
                calibration))
            if (time.perf_counter() - pass_start >= args.seconds
                    and len(epochs) >= min_epochs):
                break

        pinned = (args.seed == DEFAULT_SEED and args.scale == 1.0
                  and not args.pin)
        problems = check_outcomes(
            workload, epochs, reference[0] if reference else None,
            pinned)
        attempted = sum(len(epoch["ops"]) for epoch in epochs)
        failed = sum(epoch["failed_ops"] for epoch in epochs)
        if problems:
            failed = attempted
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)

        plain = [epoch for epoch in epochs if not epoch["traced"]]
        queries = workload.queries_per_epoch
        if not args.trace:
            ops = harness.per_op_medians(
                [epoch["ops"] for epoch in plain])
            # Times are in reference-host units: measured x factor
            # (see harness.Calibration).
            factor = calibration.factor
            values = {
                "setup_s": (epochs[0]["start"] - PROCESS_START) * factor,
                "throughput_qps": statistics.median(
                    queries / epoch["wall"] for epoch in plain) / factor,
                "op_p50_ms": statistics.median(ops) * factor,
                "cpu_ms_per_query": statistics.median(
                    epoch["cpu"] * 1e3 / queries
                    for epoch in plain) * factor,
                "peak_rss_mb": max(epoch["rss"] for epoch in plain),
            }
            metrics = harness.metric_block(values,
                                           declaration["end_to_end"])
        else:
            traced = [epoch for epoch in epochs if epoch["traced"]]
            values = {
                key: statistics.median(epoch["layer"][key]
                                       for epoch in traced)
                for key in traced[0]["layer"]}
            plain_wall = statistics.median(e["wall"] for e in plain)
            values.update({
                "op.p95_ms": harness.percentile(harness.per_op_medians(
                    [epoch["ops"] for epoch in plain]), 0.95),
                "calibration.kernel_ms": calibration.kernel_ms,
                "calibration.factor": calibration.factor,
                "setup.network_s": dataset.network_seconds,
                "setup.database_s": dataset.database_seconds,
                "setup.generate_s": generate_seconds,
                "setup.warmup_s": warmup_seconds,
                "setup.boot_s": statistics.median(
                    epoch["boot"] for epoch in epochs),
                "trace.overhead_pct": 100.0 * (statistics.median(
                    e["wall"] for e in traced) / plain_wall - 1.0),
            })
            values.update(workload.probes(values, plain_wall))
            metrics = harness.metric_block(values,
                                           declaration["per_layer"])
            harness.write_trace(
                harness.OUT_DIR / f"{args.workload}.trace.jsonl",
                [(index, epoch["spans"])
                 for index, epoch in enumerate(epochs)
                 if epoch["traced"]])
        result = {"correct": not problems, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        info = {"epochs": len(epochs),
                "op_samples": len(epochs[0]["ops"]),
                "kernel_ms": calibration.kernel_ms,
                "factor": calibration.factor}
        if args.pin:
            info["pin"] = {"input": workload.input_digest(),
                           "outcome": epochs[0]["outcome"].digest()}
        return result, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload: str, result: dict, info: dict) -> None:
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"epochs={info['epochs']} "
          f"op samples per epoch={info['op_samples']}")
    print(f"   calibration kernel {info['kernel_ms']:.1f} ms, nominal "
          f"{harness.NOMINAL_KERNEL_MS:.1f} ms: end-to-end times are "
          f"measured x {info['factor']:.4f}")
    for name, entry in result["metrics"].items():
        print(f"  {name:40s} {entry['value']:14.4f} {entry['unit']}")


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def run_child(workload: str, seed: int, extra: list) -> dict:
    """Run one workload in a fresh interpreter; returns its result."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), *extra]
    # Its own process group, so that a timeout takes the server child
    # and the shard workers with it.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=WORKLOAD_TIMEOUT)
    except BaseException as error:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise SystemExit(f"{workload} exceeded {WORKLOAD_TIMEOUT}s")
        raise
    lines = output.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{workload} exited {child.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(args, names) -> int:
    """Every workload, each in its own interpreter, ``--repeat`` times
    with alternating order; optionally collected into ``--out``."""
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", str(args.scale)]
    runs: list = []
    ok = True
    for repeat in range(args.repeat):
        order = names if repeat % 2 == 0 else names[::-1]
        for workload in order:
            seed = args.seed + repeat
            result = run_child(workload, seed,
                               extra + (["--pin"] if args.pin else []))
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append({"workload": workload, "seed": seed, **result})
    if args.pin:
        EXPECTED.write_text(json.dumps(
            {run["workload"]: run["pin"] for run in runs},
            indent=2, sort_keys=True) + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1)
                                  + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A terminated run unwinds like a failed one: every handler that
    # stops a child still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if argv and argv[0] == "compare":
        import compare
        return compare.main(argv[1:])
    if not (SOURCE / "repro").is_dir():
        raise SystemExit(f"the ledger measures the checkout it sits in, "
                         f"and {SOURCE / 'repro'} is missing")
    declaration = harness.declared()
    names = [entry["name"] for entry in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one interpreter each")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: runs per workload, seeds "
                             "seed, seed+1, ...")
    parser.add_argument("--out", help="with --all: collect the runs "
                                      "into this JSON file")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin expected.json from the default "
                             "seed at scale 1")
    args = parser.parse_args(argv)
    if args.workload is None:
        # Only this branch starts interpreters, and every one of them
        # is given --workload, so a child can never fan out again.
        if args.pin:
            args.seed, args.scale, args.seconds = DEFAULT_SEED, 1.0, 0.0
        elif not args.all:
            parser.error("need --workload NAME, --all or --pin")
        return run_all(args, names)

    try:
        result, info = run_workload(args, declaration)
    finally:
        leftover = harness.stop_children()
    report(args.workload, result, info)
    if leftover:
        print(f"CHECK FAILED: children outlived their epoch: {leftover}",
              file=sys.stderr)
        result["correct"] = False
    if args.pin:
        print(json.dumps({**result, "pin": info["pin"]}))
    else:
        print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
