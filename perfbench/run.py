"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The program is imported from ./src, never
from an installed copy. Set-up is timed in SETUP_SAMPLES fresh interpreters
(the last of which then runs the timed phase) and reported as their median.
Every time is scaled to a nominal host speed; see calibration.py.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from a second, traced pass over the
same op list. The lines before it print every metric with its unit, the
failed-op ratio and an environment record. The full record, with every op,
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOADS = ("exact-cold", "nodal-warm", "profiles", "cli-session")
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0



class RunError(RuntimeError):
    pass


def _spawn(argv: list[str], deadline: float) -> tuple[float, float, str]:
    """Start a worker; return (calibrated and wall seconds to READY, remaining stdout).

    The worker samples the host speed before importing the program and
    after its set-up; the time those samples took is not set-up time.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        fields = line.split()
        if len(fields) != 3 or fields[0] != "READY":
            raise RunError(f"worker did not get ready: {line!r}")
        setup_s -= float(fields[1])
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise RunError(f"worker exited with code {proc.returncode}")
        return setup_s * float(fields[2]), setup_s, out
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _end_to_end(setups: list[float], ops: list[dict], peak_rss_mb: float) -> dict[str, float]:
    lat = [r["latency_s"] for r in ops]
    digits = [r["digits"] for r in ops if r["digits"] is not None]
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "oracle_digits_min": min(digits) if digits else 0.0,
    }


def _per_layer(run: dict) -> dict[str, float | None]:
    untraced = sum(r["latency_s"] for r in run["untraced"])
    traced = sum(r["latency_s"] for r in run["traced"])
    metrics = dict(run["layers"])
    metrics["trace.untraced_throughput_ops_s"] = len(run["untraced"]) / untraced
    metrics["trace.traced_throughput_ops_s"] = len(run["traced"]) / traced
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pencil" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program at {ROOT / 'src' / 'pencil'}; run from a checkout\n")
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    load_before = os.getloadavg()
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        spawned = [_spawn(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
        spawned.append(_spawn(base + ["--trace", str(args.trace)], deadline))
    except (RunError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    setups = [s for s, _, _ in spawned]
    setups_wall = [w for _, w, _ in spawned]
    run = json.loads(spawned[-1][2].strip().splitlines()[-1])

    ops = run["untraced"] + run.get("traced", [])
    failed = sum(not r["ok"] for r in ops)
    correct = failed == 0 and run.get("digests_equal", True)
    if args.trace:
        metrics = _per_layer(run)
    else:
        metrics = _end_to_end(setups, run["untraced"], run["peak_rss_mb"])
    units = _units()
    env = {
        "python": run["versions"]["python"],
        "numpy": run["versions"]["numpy"],
        "mpmath": run["versions"]["mpmath"],
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} ops={len(run['untraced'])}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value!s:>24} {units.get(name, '')}")
    print(f"  {'failed_ratio':34s} {failed / len(ops):>24} ratio ({failed}/{len(ops)} ops failed)")
    if args.trace:
        print(f"  traced digests equal untraced: {run['digests_equal']}")
    wall = [r["wall_s"] for r in run["untraced"]]
    print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}; wall {', '.join(f'{s:.4f}' for s in setups_wall)}")
    print(f"  wall-clock throughput_ops_s: {len(wall) / sum(wall):.4f}; wall p50 ms: {statistics.median(wall) * 1e3:.4f}")
    for r in ops:
        if not r["ok"]:
            print(f"  FAIL {r['key']}: {r['detail']}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "env": env,
        "metrics": metrics,
        "setup_samples_s": setups,
        "setup_samples_wall_s": setups_wall,
        "correct": correct,
        **run,
    }
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
