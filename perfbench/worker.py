"""One fresh interpreter running one workload: set-up, timed phase, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace 0|1] [--setup-only]

Once set-up is done it prints "READY <calibration seconds> <speed factor>",
so the parent can time set-up from process start, and then, unless
--setup-only, one JSON line with the run. The program is imported only after
the first calibration samples, so the samples bracket the import and the
warm-up.

The timed phase is a closed loop with one caller: each op starts when the
previous one has returned. Only the program call is timed; digests and
oracles are computed afterwards. With --trace 1 the same op list runs a
second time with the tracing wrappers installed, and both passes must give
the same digests.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import calibration
from tracing import Tracer

# imported by main() after the first calibration samples; it imports the program
workloads = None

# enough ops that at least ten latencies lie beyond the 90th percentile
MIN_OPS = 100


def _timed_pass(wl, ops: list | None, seed: int, seconds: float, tracer=None):
    """Run whole rounds until `seconds` of op time and MIN_OPS ops, or replay `ops`.

    Returns ([(op, latency_s, start, end, summary)], speed log): latency_s
    is the wall time end - start scaled to the nominal host speed (see
    calibration.py). Raw results are dropped right after they are summarized
    so they do not inflate the peak RSS.
    """
    records = []
    intervals = []
    speed = calibration.SpeedLog()
    measured = 0.0
    if ops is None:
        rng = random.Random(f"{wl.name}:{seed}")
        index = 0

        def rounds():
            nonlocal index
            while measured < seconds or len(records) < MIN_OPS:
                yield from wl.round(rng, index)
                index += 1

        source = rounds()
    else:
        source = iter(ops)
    for op_id, op in enumerate(source, start=1):
        if tracer is not None:
            tracer.op_id = op_id
        speed.tick()
        start = time.perf_counter()
        try:
            raw = workloads.run_op(op)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            end = time.perf_counter()
            summary = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            end = time.perf_counter()
            summary = workloads.summarize(op, raw)
            del raw
        measured += end - start
        intervals.append((start, end))
        records.append((op, summary))
    speed.sample()
    timed = [
        (op, (end - start) * speed.factor(start, end), start, end, summary)
        for (op, summary), (start, end) in zip(records, intervals)
    ]
    return timed, list(zip(speed.times, speed.loops))


def _check(records):
    results = []
    for op, latency, start, end, summary in records:
        if "error" in summary:
            ok, digits, detail = False, 0.0, summary["error"]
        else:
            try:
                ok, digits, detail = workloads.check(op, summary)
            except Exception as exc:  # a check that cannot run counts as a failed op
                ok, digits, detail = False, 0.0, f"{type(exc).__name__}: {exc}"
        results.append(
            {"key": op.key, "latency_s": latency, "start_s": start, "wall_s": end - start, "ok": ok, "digits": digits, "detail": detail}
        )
    return results


def _write_spans(path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# op_id span_id parent_id name start_s end_s\n")
        for op_id, span_id, parent_id, name, start, end in spans:
            fh.write(f"{op_id} {span_id} {parent_id} {name} {start:.9f} {end:.9f}\n")


def _run(wl, args) -> dict:
    import mpmath
    import numpy

    try:
        records, speed_log = _timed_pass(wl, None, args.seed, args.seconds)
        out = {"untraced": _check(records), "speed_log": speed_log}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = _timed_pass(wl, [r[0] for r in records], args.seed, 0.0, tracer)
            finally:
                tracer.uninstall()
            out["traced"] = _check(traced)
            out["digests_equal"] = [r[-1] for r in records] == [r[-1] for r in traced]
            out["layers"] = tracer.metrics()
            spans_path = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.txt"
            _write_spans(spans_path, tracer.spans)
            out["spans_file"] = str(spans_path.relative_to(workloads.ROOT))
    finally:
        teardown = getattr(wl, "teardown", None)
        if teardown is not None:
            teardown()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "mpmath": mpmath.__version__}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    calibration.warm_up()
    loops = calibration.loop_samples()
    calibrating = time.perf_counter() - start

    global workloads
    import workloads

    wl = workloads.make_workload(args.workload)
    wl.setup()
    start = time.perf_counter()
    loops += calibration.loop_samples()
    calibrating += time.perf_counter() - start
    print(f"READY {calibrating!r} {calibration.factor_of(loops)!r}", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(_run(wl, args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
