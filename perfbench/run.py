"""Benchmark entry point.

    python3 perfbench/run.py --workload {oracle-sweep,kernel-large,certify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.
Each run starts fresh worker processes (worker.py), one client each, in a
closed loop.

The work in a run is fixed: the worker turns ``--seconds`` into a number of
rounds of the workload's op mix (see workloads.py) and never stops on a
clock.  Two commits therefore do the same work, so peak RSS and cache
sizes compare like for like.

--trace 0 prints the end-to-end metrics.  set-up is timed from process
start to ``ready`` in SETUP_SAMPLES processes (the measured run is one of
them) and reported as the median.

--trace 1 runs the workload untraced and then traced, and prints the
per-layer metrics of the traced run plus the ratio of the two runs'
round times (each op at the median of its kept fastest samples).  Spans
are written under .perfbench-out/.

The last line of output is one JSON object: correct, attempted, failed and
metrics (name -> value and unit, units from BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle-sweep", "kernel-large", "certify")
SETUP_SAMPLES = 5
TIMEOUT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_worker(args, role: str, deadline: float):
    """Run one worker to the end; return its set-up time (spawn -> ``ready``)
    and its JSON result (None for a set-up-only worker)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{role} worker failed (exit code {proc.returncode})")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bilinear_kernels" / "__init__.py").is_file():
        return fail(f"no src/bilinear_kernels under {ROOT}; run from a checkout's root")
    if not spec_path.is_file():
        return fail(f"no BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    deadline = time.monotonic() + TIMEOUT_S

    try:
        if args.trace:
            _, base = start_worker(args, "run", deadline)
            _, main_res = start_worker(args, "trace", deadline)
            values = dict(main_res["layers"])
            values["trace.overhead"] = main_res["round_s"] / base["round_s"]
            wanted = spec["per_layer"]
        else:
            setup_s, main_res = start_worker(args, "run", deadline)
            setups = [setup_s] + [start_worker(args, "setup", deadline)[0]
                                  for _ in range(SETUP_SAMPLES - 1)]
            values = {k: main_res[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms",
                                               "peak_rss_mb")}
            values["ok_ratio"] = 1.0 - main_res["failed"] / main_res["attempted"]
            values["setup_s"] = statistics.median(setups)
            wanted = spec["end_to_end"]
    except RuntimeError as exc:
        return fail(str(exc))

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        return fail(f"metrics do not match BENCHMARK.json: "
                    f"missing {sorted(set(names) - set(values))}, "
                    f"extra {sorted(set(values) - set(names))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = main_res["env"]
    print(f"# workload={args.workload} seed={args.seed} rounds={main_res['rounds']} "
          f"kept_per_op={main_res['kept_per_op']} ops={main_res['attempted']} "
          f"beyond_p90={main_res['beyond_p90']} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for reason, count in main_res["failures"].items():
        print(f"# failed {count}x {reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": main_res["failed"] == 0,
                      "attempted": main_res["attempted"],
                      "failed": main_res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
