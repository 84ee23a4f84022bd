"""The benchmark's per-layer tracer (``perfbench/tracer.py``) wraps
package functions named by module and function; each of those names must
still resolve, so a rename in the package shows up here first.  The
traced pass also reads counters from each report's ``gusosc`` details."""

import importlib
import importlib.util
import json
from pathlib import Path

from conftest import DEPENDENT_CURVED

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_package_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, names in tracer.TRACED.items():
        home = importlib.import_module(f"fullstab.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"fullstab.{module}.{name}"


def test_layer_metrics_read_gusosc_details_on_both_paths(tmp_path, monkeypatch):
    # the traced pass sums attempts, samples_accepted and cones_evaluated
    # from every report's gusosc details, whichever path decided it: faces
    # on curved and on polyhedral data, or not run where CRCQ fails
    monkeypatch.syspath_prepend(str(TRACER.parent))
    worker = importlib.import_module("worker")
    from fullstab.cli import run

    models = {
        "curved": DEPENDENT_CURVED,
        "polyhedral": (TRACER.parent.parent / "models" / "identity.model").read_text(),
        "not_run": "dims n=2 d=0\nf = (2*x1, 2*x2)\nconstraint x1 <= 0\n"
                   "constraint x1 - x2^2 <= 0\nreference x=(0, 0) p=() v=(0, 0)\n",
    }
    reports = []
    for name, text in models.items():
        path = tmp_path / f"{name}.model"
        path.write_text(text)
        out = tmp_path / f"{name}.json"
        argv = ["certify", str(path), "--samples", "20", "--grid-v", "3", "--grid-p", "3"]
        assert run(argv + ["--json", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    details = [r["gusosc"]["details"] for r in reports]
    assert [d["method"] for d in details] == ["faces", "faces", "not_run"]
    assert reports[2]["verdict"] == "undetermined"
    for d in details:
        assert d["attempts"] == d["samples_accepted"] == 0
    assert details[2]["cones_evaluated"] == 0
    assert details[0]["cones_evaluated"] > 0 and details[1]["cones_evaluated"] > 0
    tracer = worker.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = worker.layer_metrics(tracer, reports)
    assert metrics["secondorder.gusosc.accepted"] == (0, "count")
    assert metrics["secondorder.gusosc.attempts"] == (0, "count")
    assert metrics["secondorder.gusosc.cones_evaluated"] == (
        sum(d["cones_evaluated"] for d in details), "count")
