"""The benchmark's per-layer tracer (``perfbench/tracer.py``) wraps
package functions named by module and function; each of those names must
still resolve, so a rename in the package shows up here first."""

import importlib
import importlib.util
from pathlib import Path

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
