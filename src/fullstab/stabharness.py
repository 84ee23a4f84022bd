"""Empirical stability harness and the end-to-end certification pipeline.

``verify_inequality`` checks the defining pair inequality

    ||(v1 - v2) - 2 kappa [theta(v1, p1) - theta(v2, p2)]||
        <= ||v1 - v2|| + ell * d(p1, p2)^exponent

over all (capped, deterministically subsampled) pairs of a localization
table.  ``fit_moduli`` estimates kappa from parameter-frozen pairs, the
Hoelder exponent from a log-log fit on canonically-frozen pairs, and ell in
closed form from the largest moving-pair ratio, and lists the pairs that
violate at its moduli.  ``certify`` runs the whole pipeline:
constraint qualifications, multiplier enumeration, the pointwise and
uniform second-order tests, the bordered-determinant probe, the solver
table and the inequality verification; the headline verdict is
condition-driven, with the harness as corroboration, and any disagreement
is reported as 'inconsistent', never silently resolved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .defaults import (
    ETA,
    GRID_P,
    GRID_V,
    PAIR_CAP,
    RANDOM_NODES,
    RHO_P,
    RHO_V,
    SAMPLES,
    SEED,
    TOL_ACT,
    TOL_INEQ,
    TOL_PD,
)
from .errors import InputError, LocalizationError
from .kkt import (
    _jsonify,
    _multipliers,
    _recession_direction,
    check_licq,
    check_mfcq,
    probe_crcq,
    strict_complement,
)
from .modelspec import ParametricModel, eval_reference, print_model
from .monotone import _pair_ratios
from .pairs import Pairs, diff, pair_map, slices
from .polycone import active_indices, rank
from .secondorder import (
    check_gssosc,
    check_gusosc,
    check_pvi_pointwise,
    check_smooth_psd,
    scoc_probe,
)
from .visolver import LocalizationTable, build_localization

__all__ = [
    "StabilityModuli",
    "StabilityReport",
    "CertifyOptions",
    "verify_inequality",
    "fit_moduli",
    "certify",
]


# ---------------------------------------------------------------------------
# pair inequality

# violating pairs listed by verify_inequality, worst first
_MAX_REPORTED = 20


def _pair_indices(count: int):
    """The capped subsample of the table's pairs as index arrays, or None
    when all of them are checked."""
    total = count * (count - 1) // 2
    if total <= PAIR_CAP:
        return None
    rng = np.random.default_rng(0)  # deterministic subsampling
    ii = rng.integers(0, count, size=PAIR_CAP)
    jj = rng.integers(0, count, size=PAIR_CAP)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    return np.minimum(ii, jj), np.maximum(ii, jj)


def _pair_terms(table: LocalizationTable, kappa: float):
    """Over the (capped) pairs of the table: the pairs, lhs =
    ||dv - 2 kappa dx||, ||dv|| and d_p."""
    v, x, p = table.v_nodes, table.x_values, table.p_nodes
    pairs = Pairs(len(table), _pair_indices(len(table)))

    def per_pair(ii, jj):
        dv = diff(v, ii, jj)
        lhs = np.linalg.norm(dv - 2.0 * kappa * diff(x, ii, jj), axis=1)
        dp = np.linalg.norm(diff(p, ii, jj), axis=1) if p.shape[1] else np.zeros(ii.size)
        return lhs, np.linalg.norm(dv, axis=1), dp

    return (pairs, *pair_map(pairs, per_pair, 3))


def verify_inequality(
    table: LocalizationTable,
    kappa: float,
    ell: float,
    exponent: float = 1.0,
):
    """Violating pairs of the full-stability inequality at (kappa, ell,
    exponent), the worst _MAX_REPORTED of them, and their count; an empty
    result corroborates the moduli on this table."""
    if len(table) == 0:
        raise InputError("empty localization table")
    if kappa <= 0 or ell < 0:
        raise InputError("need kappa > 0 and ell >= 0")
    return _listed(_pair_terms(table, kappa), ell, exponent)


def _listed(terms, ell: float, exponent: float):
    """The pairs with lhs > ||dv|| + ell d_p^exponent + TOL_INEQ, tested
    slice by slice of the pair terms: the worst _MAX_REPORTED of them,
    worst first, and their count."""
    pairs, lhs, base, dp = terms
    bad = [np.zeros(0, dtype=np.int64)]
    for sl in slices(lhs.size):
        rhs = base[sl] + ell * dp[sl] ** exponent + TOL_INEQ
        bad.append(sl.start + np.flatnonzero(lhs[sl] > rhs))
    bad = np.concatenate(bad)
    rhs = base[bad] + ell * dp[bad] ** exponent + TOL_INEQ
    margin = lhs[bad] - rhs
    order = np.argsort(margin)[::-1]
    return [
        {
            "pair": pairs.pair(int(bad[o])),
            "lhs": float(lhs[bad[o]]),
            "rhs": float(rhs[o]),
            "margin": float(margin[o]),
            "d_p": float(dp[bad[o]]),
        }
        for o in order[:_MAX_REPORTED]
    ], int(bad.size)


@dataclass
class StabilityModuli:
    kappa_hat: Optional[float]  # None when every p-frozen pair is degenerate
    kappa_vacuous: bool
    kappa_used: float
    kappa_flagged: bool  # kappa_hat <= tolerance: not strongly monotone
    ell_hat: Optional[float]  # None when no finite ell clears the table
    exponent_hat: Optional[float]  # fitted; None when parameter-independent
    exponent_used: float  # rounded to 1 or 1/2
    p_frozen_pairs: int
    v_frozen_pairs: int
    witness: dict = field(default_factory=dict)
    # verify_inequality at (kappa_used, ell_hat or 0, exponent_used)
    violations: list = field(default_factory=list)
    violation_count: int = 0

    def to_json_dict(self):
        return {
            "kappa": self.kappa_used,
            "kappa_hat": self.kappa_hat,
            "kappa_vacuous": self.kappa_vacuous,
            "kappa_flagged": self.kappa_flagged,
            "ell": self.ell_hat,
            "exponent": self.exponent_used,
            "exponent_fitted": self.exponent_hat,
            "p_frozen_pairs": self.p_frozen_pairs,
            "v_frozen_pairs": self.v_frozen_pairs,
            "witness": _jsonify(self.witness),
        }


def _frozen_groups(p_nodes: np.ndarray):
    """The rows of each distinct parameter node, ascending, with the groups
    in first-seen order.  Nodes are told apart by their bytes, so 0.0 and
    -0.0 are two nodes."""
    N, d = p_nodes.shape
    if d == 0:
        return [np.arange(N)]
    rows = np.ascontiguousarray(p_nodes)
    keys = rows.view(np.dtype((np.void, rows.itemsize * d))).ravel()
    _, first, label = np.unique(keys, return_index=True, return_inverse=True)
    label = np.argsort(np.argsort(first))[label]
    return np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])


def fit_moduli(table: LocalizationTable) -> StabilityModuli:
    """Fit (kappa, ell, exponent) from the table.

    kappa is the worst parameter-frozen Rayleigh ratio
    <v1-v2, x1-x2>/||x1-x2||^2 (vacuous when the localization does not
    move with v); the exponent comes from a log-log regression on
    canonically-frozen pairs rounded to {1/2, 1}; ell is the smallest
    value with zero violations at those (kappa, exponent), in closed form
    up to a relative band (see ``_fit_ell``).  The pair terms at kappa are
    computed once, for ell and for the violations listed at the fitted
    moduli, as :func:`verify_inequality` lists them.  Every pair walk goes
    through ``fullstab.pairs``.
    """
    N = len(table)
    if N < 2:
        raise InputError("need at least two table entries")
    d = table.p_nodes.shape[1]
    x, v, p = table.x_values, table.v_nodes, table.p_nodes

    # --- kappa from p-frozen pairs
    kappa_hat = None
    p_frozen = 0
    witness = {}
    for rows in _frozen_groups(p):
        count, ratio, pair = _pair_ratios(x, v, rows)
        p_frozen += count
        if count and (kappa_hat is None or ratio < kappa_hat):
            kappa_hat = float(ratio)
            witness["kappa_pair"] = pair
    kappa_vacuous = kappa_hat is None
    kappa_flagged = (kappa_hat is not None) and kappa_hat <= TOL_INEQ
    kappa_used = 1.0 if kappa_vacuous or kappa_flagged else kappa_hat

    # --- exponent from v-frozen pairs at the canonical center
    exponent_hat = None
    v_frozen = 0
    if d:
        # the tensor grid repeats each v-node across all p-nodes; use the
        # node closest to the table's median v as the frozen slice
        med = np.median(v, axis=0)
        dist = np.linalg.norm(v - med, axis=1)
        vkey = v[int(np.argmin(dist))]
        sel = np.flatnonzero(np.linalg.norm(v - vkey, axis=1) < 1e-12)
        if sel.size >= 2:
            dx, dp = pair_map(
                Pairs(sel.size, rows=sel),
                lambda ii, jj: (
                    np.linalg.norm(diff(x, ii, jj), axis=1),
                    np.linalg.norm(diff(p, ii, jj), axis=1),
                ),
                2,
            )
            keep = (dx > 1e-12) & (dp > 1e-12)
            v_frozen = int(np.sum(keep))
            if v_frozen >= 2:
                slope, _ = np.polyfit(np.log(dp[keep]), np.log(dx[keep]), 1)
                exponent_hat = float(slope)
    exponent_used = 1.0
    if exponent_hat is not None:
        exponent_used = 0.5 if abs(exponent_hat - 0.5) < abs(exponent_hat - 1.0) else 1.0

    # --- ell in closed form at (kappa_used, exponent_used)
    terms = _pair_terms(table, kappa_used)
    ell_hat, ell_witness = _fit_ell(terms, exponent_used)
    if ell_witness:
        witness["ell_blocking_pair"] = ell_witness
    violations, violation_count = _listed(terms, ell_hat or 0.0, exponent_used)
    return StabilityModuli(
        kappa_hat=kappa_hat,
        kappa_vacuous=kappa_vacuous,
        kappa_used=kappa_used,
        kappa_flagged=kappa_flagged,
        ell_hat=ell_hat,
        exponent_hat=exponent_hat,
        exponent_used=exponent_used,
        p_frozen_pairs=p_frozen,
        v_frozen_pairs=v_frozen,
        witness=witness,
        violations=violations,
        violation_count=violation_count,
    )


def _fit_ell(terms, exponent):
    """ell = h + 1e-9 (1 + h) over the pair terms at the fitted kappa, h the
    largest (lhs - ||dv|| - TOL_INEQ) / d_p^exponent over the moving pairs
    (0 when that is negative); 0.0 when no pair violates at ell = 0; None
    and a witness when a parameter-frozen pair violates at every ell.

    h is the smallest ell with no violation up to the rounding of the
    ratios, which can leave the pair attaining it violating by an ulp.  The
    band 1e-9 (1 + h), the width a bisection to a relative 1e-9 stops
    within, covers that rounding and the table's pairs outside the capped
    subsample: on ex64 every pair then clears by 4e-10, where ell nudged up
    from h by ulps leaves a pair over TOL_INEQ."""
    pairs, lhs, base, dp = terms
    frozen = np.flatnonzero(dp <= 1e-15)
    gap = lhs[frozen] - base[frozen] - TOL_INEQ
    if np.any(gap > 0):
        k = int(np.argmax(gap))
        return None, {
            "pair": pairs.pair(int(frozen[k])),
            "margin": float(gap[k]),
            "reason": "parameter-frozen pair violates at every ell",
        }
    if frozen.size == dp.size:
        return 0.0, None

    def blocks():
        # per block: any violation at ell = 0, the largest moving-pair ratio
        for sl in slices(dp.size):
            moving = sl.start + np.flatnonzero(~(dp[sl] <= 1e-15))
            ratio = (lhs[moving] - base[moving] - TOL_INEQ) / dp[moving] ** exponent
            yield np.any(lhs[sl] > base[sl] + TOL_INEQ), np.max(ratio, initial=-np.inf)

    violating, maxima = zip(*blocks())
    if not any(violating):
        return 0.0, None
    h = max(0.0, float(np.max(maxima)))
    return h + 1e-9 * (1.0 + h), None


# ---------------------------------------------------------------------------
# certification pipeline


@dataclass
class CertifyOptions:
    eta: float = ETA
    samples: int = SAMPLES  # read by probe-monotone; certify only echoes it
    rho_v: float = RHO_V
    rho_p: float = RHO_P
    grid_v: int = GRID_V
    grid_p: int = GRID_P
    n_random: int = RANDOM_NODES
    seed: int = SEED
    tol_act: float = TOL_ACT
    tol_pd: float = TOL_PD

    def __post_init__(self):
        for name in ("eta", "rho_v", "rho_p"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InputError(f"option {name} must be finite and positive, got {value}")
        for name in ("tol_act", "tol_pd"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise InputError(f"option {name} must be finite and nonnegative, got {value}")
        # a grid axis needs two nodes to reach both sides of the reference
        for name, low in (("samples", 1), ("grid_v", 2), ("grid_p", 2), ("seed", 0)):
            value = getattr(self, name)
            if value < low:
                raise InputError(f"option {name} must be at least {low}, got {value}")

    def to_json_dict(self):
        return {k: getattr(self, k) for k in sorted(self.__dataclass_fields__)}


@dataclass(kw_only=True)
class StabilityReport:
    # the fields with defaults are the ones an MFCQ refusal leaves empty
    verdict: str  # fully_stable | not_fully_stable | inconsistent | undetermined
    fully_stable: Optional[bool]
    model_hash: str
    cq: dict
    multipliers: Optional[dict]
    gssosc: Optional[dict] = None
    gusosc: Optional[dict] = None
    pvi_pointwise: Optional[dict] = None
    smooth_psd: Optional[dict] = None
    scoc_probe: list = field(default_factory=list)
    moduli: Optional[dict] = None
    violations: list = field(default_factory=list)
    violation_count: int = 0
    localization: Optional[dict] = None
    notes: list
    options: dict
    schema: int = 1

    def to_json_dict(self):
        return _jsonify({f.name: getattr(self, f.name) for f in fields(self)})

    def to_text(self) -> str:
        """Human-readable rendering mirroring the JSON 1:1."""
        lines = []

        def emit(key, value, indent=0):
            pad = "  " * indent
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                for k in sorted(value):
                    emit(k, value[k], indent + 1)
            elif isinstance(value, list):
                lines.append(f"{pad}{key}: [{len(value)} item(s)]")
                for i, item in enumerate(value):
                    emit(str(i), item, indent + 1)
            else:
                lines.append(f"{pad}{key}: {value}")

        data = self.to_json_dict()
        # schema first, then the fields in declaration order
        for key in ["schema"] + [f.name for f in fields(self) if f.name != "schema"]:
            emit(key, data[key])
        return "\n".join(lines) + "\n"


def model_hash(model: ParametricModel) -> str:
    return hashlib.sha256(print_model(model).encode()).hexdigest()[:16]


def _max_independent_subset(grad_matrix: np.ndarray, candidates):
    """Greedy maximal independent subset of gradient rows (by index)."""
    chosen = []
    for i in candidates:
        if rank(grad_matrix[chosen + [i]]) == len(chosen) + 1:
            chosen.append(i)
    return tuple(chosen)


def certify(model: ParametricModel, options: Optional[CertifyOptions] = None) -> StabilityReport:
    """Full pipeline; the headline verdict follows the characterization
    'under MFCQ + CRCQ, fully stable iff the uniform second-order test
    passes', with the empirical harness as corroboration."""
    opts = options or CertifyOptions()
    ref = model.reference
    if ref is None:
        raise InputError("model file has no reference triple")
    notes = []
    # one evaluation of the reference and one active set: MFCQ, CRCQ,
    # Lambda, the uniform test and the determinant probe read the exact
    # bundle, the rest its float cast
    exact, floats = eval_reference(model, ref)
    I = active_indices(exact.phi, opts.tol_act)
    mfcq = check_mfcq(exact, I)
    licq = check_licq(floats, I)
    crcq = probe_crcq(model, exact, I)
    cq = {
        "mfcq": mfcq.to_json_dict(),
        "licq": licq.to_json_dict(),
        "crcq": crcq.to_json_dict(),
    }
    base = dict(
        model_hash=model_hash(model),
        cq=cq,
        options=opts.to_json_dict(),
    )
    if not mfcq.ok:
        notes.append(
            "MFCQ fails at the reference: multiplier set may be unbounded; "
            "second-order checks refused"
        )
        multipliers = {"unbounded": True, "recession": _jsonify(_recession_direction(exact, I))}
        return StabilityReport(
            verdict="undetermined", fully_stable=None, multipliers=multipliers,
            notes=notes, **base,
        )

    # MFCQ holds: Lambda is a polytope, enumerated without a second MFCQ LP
    ms = _multipliers(exact, I, ref.v)

    gssosc = check_gssosc(floats, ms, tol_pd=opts.tol_pd)
    gusosc = check_gusosc(model, ref, ms, opts.tol_pd, crcq=crcq)
    pvi = None
    v_hat = ref.v_hat(exact)
    if all(model.affine_x) and all(model.param_free):
        pvi = check_pvi_pointwise(model, v_hat, floats, I, opts.tol_pd)
    smooth = check_smooth_psd(model, v_hat, floats, opts.tol_pd) if model.m == 0 else None

    scoc = []
    for vert in ms.vertices:
        i_plus = strict_complement(vert, ms.active)
        J = _max_independent_subset(ms.grad_matrix, list(i_plus)) if i_plus else ()
        scoc.append(scoc_probe(exact, vert, J))

    # ----- empirical harness
    moduli = None
    violations = []
    violation_count = 0
    table = None
    try:
        table = build_localization(
            model, ref,
            rho_v=opts.rho_v, rho_p=opts.rho_p,
            grid_v=opts.grid_v, grid_p=opts.grid_p,
            n_random=opts.n_random, seed=opts.seed, tol_act=opts.tol_act,
        )
        localization = dict(table.meta)
        localization["nodes"] = len(table)
        localization["single_valued"] = True
        fitted = fit_moduli(table)
        moduli = fitted.to_json_dict()
        violations, violation_count = fitted.violations, fitted.violation_count
        harness_clean = (
            not fitted.kappa_flagged
            and fitted.ell_hat is not None
            and violation_count == 0
        )
    except LocalizationError as err:
        localization = {"single_valued": False, "witness": _jsonify(err.witness)}
        harness_clean = False
        notes.append(f"localization failed: {err}")

    # ----- headline verdict
    characterization_available = crcq.ok  # MFCQ already holds here
    conditions_stable = gusosc.ok
    if not characterization_available:
        verdict = "undetermined"
        fully_stable = None
        notes.append(
            "CRCQ fails: the uniform second-order test is no "
            "longer a characterization; empirical harness attached"
        )
    elif gssosc.ok and not gusosc.ok:
        verdict = "inconsistent"
        fully_stable = None
        notes.append(
            "implication chain broken: pointwise strict-complementarity test "
            "holds but the uniform test fails"
        )
    elif conditions_stable and harness_clean:
        verdict = "fully_stable"
        fully_stable = True
    elif not conditions_stable and not harness_clean:
        verdict = "not_fully_stable"
        fully_stable = False
    else:
        verdict = "inconsistent"
        fully_stable = None
        notes.append(
            "condition-based verdict and empirical harness disagree "
            f"(conditions_stable={conditions_stable}, harness_clean={harness_clean}); "
            "investigate tolerances or radii"
        )
    if gssosc.ok:
        notes.append("GSSOSC holds (sufficient for full stability)")
    elif conditions_stable:
        notes.append(
            "GSSOSC fails but the uniform test passes: consistent, the "
            "pointwise test is only sufficient"
        )
    if any(entry["zero"] for entry in scoc):
        notes.append(
            "coherent-orientation determinant probe found a zero determinant"
        )
    report = StabilityReport(
        verdict=verdict,
        fully_stable=fully_stable,
        multipliers=ms.to_json_dict(),
        gssosc=gssosc.to_json_dict(),
        gusosc=gusosc.to_json_dict(),
        pvi_pointwise=pvi.to_json_dict() if pvi else None,
        smooth_psd=smooth.to_json_dict() if smooth else None,
        scoc_probe=[_jsonify(s) for s in scoc],
        moduli=moduli,
        violations=[_jsonify(v) for v in violations],
        violation_count=violation_count,
        localization=_jsonify(localization),
        notes=notes,
        **base,
    )
    report._table = table
    return report
