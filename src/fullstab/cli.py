"""Command-line front end.

Subcommands: ``certify``, ``solve``, ``probe-monotone``, ``cones``,
``report``.  Exit codes: 0 = verdict computed (even 'not fully stable'),
1 = input error, 2 = internal inconsistency (condition/harness
disagreement or a broken implication chain).

The JSON report is the machine interface; the text rendering mirrors it
1:1.  With a fixed seed, reports are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import defaults as dflt
from .errors import DimensionError, FullstabError, InconsistencyError, InputError
from .kkt import check_licq, check_mfcq, multiplier_polytope, probe_crcq
from .modelspec import eval_reference, parse_model
from .monotone import (
    GraphSample,
    estimate_from_inverse,
    estimate_moduli,
    graph_sample_from_model,
)
from .polycone import active_indices, critical_cone, span_difference, tangent_cone
from .stabharness import CertifyOptions, StabilityReport, certify
from .visolver import solve_faces, solve_projected

__all__ = ["main", "run"]


def _vector(text: str):
    text = text.strip()
    if not text:
        return ()
    values = tuple(float(s) for s in text.split(","))
    if not np.all(np.isfinite(values)):
        raise InputError(f"vector entries must be finite, got {text!r}")
    return values


# every model flag; each subcommand registers only the ones it reads
_FLAGS = {
    "--eta": dict(type=float, default=dflt.ETA,
                  help="graph-sampling radius of the monotonicity probe"),
    "--rho-v": dict(type=float, default=dflt.RHO_V,
                    help="canonical-parameter grid radius"),
    "--rho-p": dict(type=float, default=dflt.RHO_P,
                    help="basic-parameter grid radius"),
    "--samples": dict(type=int, default=dflt.SAMPLES,
                      help="sample count of the monotonicity probe (certify "
                      "accepts and echoes it)"),
    "--seed": dict(type=int, default=dflt.SEED),
    "--tol-pd": dict(type=float, default=dflt.TOL_PD,
                     help="positive-definiteness threshold"),
    "--tol-act": dict(type=float, default=dflt.TOL_ACT,
                      help="active-set detection tolerance"),
    "--grid-v": dict(type=int, default=dflt.GRID_V),
    "--grid-p": dict(type=int, default=dflt.GRID_P),
    "--json": dict(metavar="PATH", default=None,
                   help="write the JSON report here instead of stdout"),
    "--csv-table": dict(metavar="PATH", default=None,
                        help="write the localization table (or cone rows) as CSV"),
    "--text": dict(action="store_true", help="print the human-readable rendering"),
}


@functools.cache  # built at the first call, then shared by every run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fullstab",
        description="Certify full stability of parametric variational systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def model_command(name, summary, flags):
        p = sub.add_parser(name, help=summary)
        p.add_argument("model", help="model file path")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    model_command(
        "certify", "run the full certification pipeline", [f for f in _FLAGS if f != "--eta"]
    )

    solve_p = model_command("solve", "solve the system at one (v, p)", ["--json"])
    solve_p.add_argument("--v", type=_vector, default=None, help="comma-separated")
    solve_p.add_argument("--p", type=_vector, default=None, help="comma-separated")
    solve_p.add_argument("--x0", type=_vector, default=None, help="start point")

    mono_p = model_command(
        "probe-monotone", "estimate monotonicity moduli",
        ["--eta", "--samples", "--seed", "--json"],
    )
    mono_p.add_argument("--from-csv", metavar="PATH", default=None,
                        help="read graph samples from CSV (u1..un, v1..vn)")

    model_command(
        "cones", "tangent/critical cone geometry",
        ["--tol-act", "--json", "--csv-table"],
    )

    report_p = sub.add_parser("report", help="render a JSON report as text")
    report_p.add_argument("path", help="JSON report file")
    return parser


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.json:
        Path(args.json).write_text(text)
    else:
        sys.stdout.write(text)


def _load_model(path: str):
    p = Path(path)
    if not p.exists():
        raise InputError(f"model file not found: {path}")
    return parse_model(p.read_text())


def _options(args) -> CertifyOptions:
    """The options of the flags a subcommand registered, the rest at their
    defaults: every subcommand checks a flag by the one rule of
    :class:`CertifyOptions`."""
    return CertifyOptions(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(CertifyOptions) if hasattr(args, f.name)
    })


def _cmd_certify(args) -> int:
    model = _load_model(args.model)
    report = certify(model, _options(args))
    if args.csv_table and getattr(report, "_table", None) is not None:
        Path(args.csv_table).write_text(report._table.to_csv())
    _emit(report.to_json_dict(), args)
    if args.text:
        sys.stdout.write(report.to_text())
    if report.verdict == "inconsistent":
        print("internal inconsistency: " + "; ".join(report.notes), file=sys.stderr)
        return 2
    return 0


def _cmd_solve(args) -> int:
    model = _load_model(args.model)
    for flag, value, size in (("--v", args.v, model.n), ("--p", args.p, model.d),
                              ("--x0", args.x0, model.n)):
        if value is not None and len(value) != size:
            raise DimensionError(f"{flag} has {len(value)} entries, the model needs {size}")
    ref = model.reference
    if ref is None and (args.v is None or args.p is None):
        raise InputError("model has no reference; pass --v and --p")
    x0, p0, v0 = (
        ref.as_arrays() if ref else (np.zeros(model.n), np.zeros(model.d), np.zeros(model.n))
    )
    v = np.asarray(args.v if args.v is not None else v0, dtype=float)
    p = np.asarray(args.p if args.p is not None else p0, dtype=float)
    x_start = np.asarray(args.x0, dtype=float) if args.x0 is not None else x0
    faces = solve_faces(model, v, p, box_center=x0)
    payload = {
        "v": list(map(float, v)),
        "p": list(map(float, p)),
        "face_solutions": [o.to_json_dict() for o in faces],
    }
    if all(model.affine_x):
        proj = solve_projected(model, v, p, x_start)
        payload["projected"] = proj.to_json_dict()
        if faces and proj.converged:
            payload["agreement_gap"] = float(
                min(np.max(np.abs(proj.x - o.x)) for o in faces)
            )
    _emit(payload, args)
    return 0


def _cmd_probe_monotone(args) -> int:
    opts = _options(args)
    model = _load_model(args.model)
    if args.from_csv:
        sample = GraphSample.from_csv(Path(args.from_csv).read_text(), model.n)
    else:
        if model.reference is None:
            raise InputError("model has no reference; monotonicity probe needs one")
        sample = graph_sample_from_model(
            model, model.reference, eta=opts.eta,
            count=max(10, opts.samples // 5), seed=opts.seed,
        )
    est = estimate_moduli(sample)
    payload = est.to_json_dict()
    payload["inverse_lipschitz"] = estimate_from_inverse(sample.inverse())
    payload["points"] = len(sample)
    _emit(payload, args)
    return 0


def _cmd_cones(args) -> int:
    opts = _options(args)
    model = _load_model(args.model)
    ref = model.reference
    if ref is None:
        raise InputError("model has no reference triple")
    exact, floats = eval_reference(model, ref)
    I = active_indices(exact.phi, opts.tol_act)
    T = tangent_cone(floats, I)
    v_hat = ref.v_hat(exact).tolist()
    K = critical_cone(T, v_hat)
    mfcq = check_mfcq(exact, I)
    licq = check_licq(floats, I)
    crcq = probe_crcq(model, exact, I)
    rays, lin = K.generators()
    payload = {
        "active_set": [i + 1 for i in I],
        "v_hat": v_hat,
        "tangent_rows": [[float(v) for v in row] for row in T.G],
        "tangent_label": "exact" if all(model.affine_x) else "exact under MFCQ",
        "critical_rays": [[float(v) for v in row] for row in rays],
        "critical_lineality_dim": int(lin.shape[1]),
        "critical_span_dim": span_difference(K).dim,
        "tangent_span_dim": span_difference(T).dim,
        "mfcq": mfcq.to_json_dict(),
        "licq": licq.to_json_dict(),
        "crcq": crcq.to_json_dict(),
    }
    try:
        ms = multiplier_polytope(exact, I, ref.v)
        payload["multipliers"] = ms.to_json_dict()
    except FullstabError as err:
        payload["multipliers"] = {"error": str(err)}
    if args.csv_table:
        Path(args.csv_table).write_text(
            T.facets_csv() + "\n" + K.generators_csv() + "\n"
        )
    _emit(payload, args)
    return 0


def _cmd_report(args) -> int:
    path = Path(args.path)
    if not path.exists():
        raise InputError(f"report file not found: {args.path}")
    data = json.loads(path.read_text())
    names = {f.name for f in dataclasses.fields(StabilityReport)}
    try:
        report = StabilityReport(**{k: v for k, v in data.items() if k in names})
    except TypeError as err:
        raise InputError(f"not a certify report: {err}")
    sys.stdout.write(report.to_text())
    return 0


_COMMANDS = {
    "certify": _cmd_certify,
    "solve": _cmd_solve,
    "probe-monotone": _cmd_probe_monotone,
    "cones": _cmd_cones,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    try:
        # a flag's type may raise InputError while the arguments are parsed
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as err:  # argparse's usage errors and --help
        return 1 if err.code not in (0, None) else 0
    except InconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 2
    except (InputError, FullstabError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
