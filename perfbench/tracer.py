"""Per-layer trace taken from outside the program.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every ``fullstab.*`` module attribute that refers to one of them,
since the modules import each other's names with ``from .x import y``.
Each wrapper records calls, total time and self time (its span minus the
spans of wrapped functions called inside it) in memory; ``uninstall``
puts the original functions back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "modelspec": ("parse_model", "eval_bundle", "eval_bundle_exact"),
    "polycone": ("polyhedron_rows", "project_onto_rows", "nnls"),
    "simplex": ("solve_standard_lp",),
    "kkt": ("check_mfcq", "multiplier_polytope", "probe_crcq"),
    "secondorder": ("check_gusosc", "check_gssosc", "scoc_probe", "min_on_cone"),
    "visolver": ("build_localization", "solve_faces", "solve_projected"),
    "stabharness": ("fit_moduli", "verify_inequality", "certify"),
    "cli": ("run",),
}


def _cone_key(args, kwargs):
    """The (H, E, G) arguments of ``min_on_cone(Q, K)`` as a hashable key."""
    Q = args[0] if args else kwargs["Q"]
    K = args[1] if len(args) > 1 else kwargs["K"]
    return tuple((a.shape, a.tobytes()) for a in (Q.H, K.E, K.G))


class Tracer:
    def __init__(self):
        self.stats = {}  # "module.function" -> [calls, total_s, self_s]
        self.cone_keys = set()
        self._child_time = []  # one accumulator per open wrapped call
        self._rebound = []  # (module, attribute, original)

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        child_time = self._child_time
        note = self.cone_keys.add if key == "secondorder.min_on_cone" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(_cone_key(args, kwargs))
            child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                inner = child_time.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - inner
                if child_time:
                    child_time[-1] += span

        return wrapper

    def install(self):
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "fullstab" or name.startswith("fullstab.")
        ]
        for short, names in TRACED.items():
            home = sys.modules[f"fullstab.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def calls(self, key) -> int:
        return self.stats[key][0]

    def total_s(self, key) -> float:
        return self.stats[key][1]

    def self_s(self, key) -> float:
        return self.stats[key][2]

    def us_per_call(self, key) -> float:
        calls, total, _ = self.stats[key]
        return total * 1e6 / calls if calls else 0.0
