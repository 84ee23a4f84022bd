"""Time-to-verdict benchmark for ``fullstab certify``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload ex64 --seed 0 --seconds 40 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the root; see
``perfbench/README.md`` for what each measures.  With ``--trace 0`` the
workload runs in a fresh process that certifies it in whole passes for
``--seconds`` seconds, after a few separate set-up-only processes; the end-
to-end metrics are printed.  With ``--trace 1`` one untraced and one traced
pass run in a fresh process and the per-layer metrics are printed.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means every output
passed the independent checks; any wrong output exits non-zero without a
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Set-up samples per run: one discarded warm-up process (it may compile
# bytecode), SETUP_PROBES set-up-only processes, and the workload process.
SETUP_PROBES = 6
# Each child process gets this long; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread: no BLAS worker threads beside the certifying thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(mode, args, out: Path):
    """Start a worker; returns (process, seconds from start to READY)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out", str(out),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc)
        raise SystemExit(f"{mode} worker did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc) -> str:
    """Wait for a worker; returns the rest of its stdout."""
    try:
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker timed out")
    return rest


def result_of(proc) -> dict:
    rest = finish(proc)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(rest.strip().splitlines()[-1])


def declared_metrics(key: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def end_to_end(args, out: Path):
    setup = []
    for k in range(SETUP_PROBES + 1):
        proc, ready = start_worker("setup", args, out / f"setup{k}")
        finish(proc)
        if proc.returncode != 0:
            raise SystemExit(f"set-up worker failed with exit code {proc.returncode}")
        if k:
            setup.append(ready)
    proc, ready = start_worker("timed", args, out / "timed")
    setup.append(ready)
    result = result_of(proc)
    values = {
        "setup_s": statistics.median(setup),
        "certify_s": statistics.median(result["pass_s"]),
        "certify_p50_s": statistics.median(result["cert_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "setup_s": len(setup), "certify_s": len(result["pass_s"]),
        "certify_p50_s": len(result["cert_s"]), "peak_rss_mb": 1,
    }
    for name, unit in declared_metrics("end_to_end"):
        print(f"  {name} = {values[name]:.6g} {unit} (n={samples[name]})")
    print("  passes: " + ", ".join(f"{s:.3f} s" for s in result["pass_s"]))
    return result, {name: (values[name], unit) for name, unit in declared_metrics("end_to_end")}


def per_layer(args, out: Path):
    proc, _ = start_worker("trace", args, out / "trace")
    result = result_of(proc)
    layers = result["layers"]
    metrics = {}
    for name, unit in declared_metrics("per_layer"):
        value, measured_unit = layers[name]
        if measured_unit != unit:
            raise SystemExit(f"{name}: measured in {measured_unit}, declared in {unit}")
        metrics[name] = (value, unit)
        print(f"  {name} = {value:.6g} {unit}")
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fullstab certify benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fullstab" / "cli.py").is_file():
        print(f"error: no fullstab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced pass' if args.trace else f'{args.seconds} s'}")
    result, metrics = (per_layer if args.trace else end_to_end)(args, out)
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for rec in result["failures"]:
        print(f"  failed: {rec['model']}: {rec['error']}: {rec['message']}")
    shutil.rmtree(out)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
