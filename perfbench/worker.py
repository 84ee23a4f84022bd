"""One workload process: set up, certify, check, report.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``
and single-threaded BLAS.  Modes:

* ``setup``: import fullstab, write and parse every model of the
  workload, print ``READY`` and exit (a set-up time sample);
* ``timed``: set up, print ``READY``, then certify the workload in whole
  passes for ``--seconds`` seconds: another pass starts while the median
  pass so far would still end in time, and there is always one;
* ``trace``: set up, run one untraced pass, then one pass with the
  per-layer tracer installed, and compare the outputs of the two byte for
  byte.

Every certification goes through ``fullstab.cli.run(["certify", ...])``
and writes its JSON report and localization CSV.  The outputs of the first
pass go through the independent checks; later passes must reproduce them
byte for byte.  The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str, out: Path):
    """Import fullstab and parse every model of the workload; returns the
    cli module and the (model, path) list."""
    import fullstab.cli as cli
    from fullstab.modelspec import parse_model

    model_dir = out / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for model in workloads.models_for(workload):
        path = model_dir / f"{model.name}.model"
        text = model.text(ROOT / "models")
        path.write_text(text)
        parse_model(text)
        inputs.append((model, path))
    return cli, inputs


@contextlib.contextmanager
def errors_named(cli):
    """Record the type of any error escaping ``certify`` inside cli.run,
    which turns it into an exit code and a message."""
    seen = []
    inner = cli.certify

    def certify(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except Exception as err:
            seen.append(type(err).__name__)
            raise

    cli.certify = certify
    try:
        yield seen
    finally:
        cli.certify = inner


def certify_pass(cli, inputs, seed: int, pass_dir: Path):
    """Certify every model once; returns (wall_s, per-certification
    records)."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    records = []
    t_pass = time.perf_counter()
    for model, path in inputs:
        report = pass_dir / f"{model.name}.json"
        table = pass_dir / f"{model.name}.csv"
        argv = ["certify", str(path), *model.argv_for(seed),
                "--json", str(report), "--csv-table", str(table)]
        stderr = io.StringIO()
        with errors_named(cli) as seen, contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            code = cli.run(argv)
            elapsed = time.perf_counter() - t0
        records.append({
            "model": model.name, "code": code, "seconds": elapsed,
            "error": seen[0] if seen else (f"exit {code}" if code else None),
            "message": stderr.getvalue().strip(),
        })
    return time.perf_counter() - t_pass, records


def check_pass(workload, inputs, records, pass_dir: Path):
    """Independent checks of one pass; raises CheckError on a wrong output."""
    failures = []
    for (model, _), rec in zip(inputs, records):
        if rec["code"] == 1 and rec["error"] == model.known_fault:
            failures.append(rec)
            continue
        if rec["code"] != 0:
            raise checks.CheckError(
                f"{model.name}: certify exited {rec['code']} "
                f"({rec['error']}): {rec['message']}"
            )
        report = json.loads((pass_dir / f"{model.name}.json").read_text())
        table = (pass_dir / f"{model.name}.csv").read_text()
        checks.check_certification(workload, model, report, table)
    return failures


def same_outputs(dir_a: Path, dir_b: Path):
    names = sorted(p.name for p in dir_a.iterdir())
    if names != sorted(p.name for p in dir_b.iterdir()):
        raise checks.CheckError(f"{dir_a.name} and {dir_b.name} wrote different files")
    for name in names:
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            raise checks.CheckError(
                f"{name} differs between {dir_a.name} and {dir_b.name} at the same seed"
            )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(args, cli, inputs, out: Path):
    passes, certs, first_records = [], [], None
    attempted = failed = 0
    first = out / "pass0"
    t_start = time.perf_counter()
    # whole passes only: start another one if it should end within --seconds
    while not passes or (
        time.perf_counter() - t_start + statistics.median(passes) <= args.seconds
    ):
        pass_dir = out / f"pass{len(passes)}"
        wall, records = certify_pass(cli, inputs, args.seed, pass_dir)
        passes.append(wall)
        certs.extend(r["seconds"] for r in records)
        attempted += len(records)
        failed += sum(1 for r in records if r["code"] != 0)
        if first_records is None:
            first_records = records
        else:
            same_outputs(first, pass_dir)
            shutil.rmtree(pass_dir)
    rss = peak_rss_mb()
    failures = check_pass(args.workload, inputs, first_records, first)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "pass_s": passes, "cert_s": certs, "peak_rss_mb": rss,
    }


def run_trace(args, cli, inputs, out: Path):
    from fullstab.modelspec import parse_model

    plain_wall, plain = certify_pass(cli, inputs, args.seed, out / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        for model, path in inputs:
            parse_model(path.read_text())
        traced_wall, traced = certify_pass(cli, inputs, args.seed, out / "traced")
    finally:
        tracer.uninstall()
    same_outputs(out / "untraced", out / "traced")
    failures = check_pass(args.workload, inputs, traced, out / "traced")
    reports = [
        json.loads((out / "traced" / f"{model.name}.json").read_text())
        for (model, _), rec in zip(inputs, traced) if rec["code"] == 0
    ]
    metrics = layer_metrics(tracer, reports)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    records = plain + traced
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["code"] != 0),
        "failures": failures,
        "layers": metrics,
    }


def layer_metrics(tracer: Tracer, reports):
    """Per-layer metrics: function timings from the tracer, counters from
    the reports, and the size of src/."""
    metrics = {}
    for short, names in TRACED.items():
        for name in names:
            key = f"{short}.{name}"
            metrics[f"{key}.calls"] = (tracer.calls(key), "count")
            metrics[f"{key}.total_s"] = (tracer.total_s(key), "s")
            metrics[f"{key}.self_s"] = (tracer.self_s(key), "s")
            metrics[f"{key}.us_per_call"] = (tracer.us_per_call(key), "us")
    metrics["secondorder.min_on_cone.distinct"] = (len(tracer.cone_keys), "count")
    gus = [r["gusosc"]["details"] for r in reports if r.get("gusosc")]
    attempts = sum(g["attempts"] for g in gus)
    accepted = sum(g["samples_accepted"] for g in gus)
    metrics["secondorder.gusosc.attempts"] = (attempts, "count")
    metrics["secondorder.gusosc.accepted"] = (accepted, "count")
    metrics["secondorder.gusosc.acceptance"] = (accepted / attempts if attempts else 0.0, "ratio")
    metrics["secondorder.gusosc.cones_evaluated"] = (
        sum(g["cones_evaluated"] for g in gus), "count")
    locs = [r["localization"] for r in reports if r.get("localization")]
    metrics["visolver.localization.nodes"] = (sum(l.get("nodes", 0) for l in locs), "count")
    metrics["visolver.localization.shrinks"] = (sum(l.get("shrinks", 0) for l in locs), "count")
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    metrics["src.lines"] = (src_lines, "lines")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    cli, inputs = setup(args.workload, args.out)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    run = run_timed if args.mode == "timed" else run_trace
    result = run(args, cli, inputs, args.out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
