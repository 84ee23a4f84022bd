"""Sample-based local monotonicity estimation for operator graphs.

Estimators are corroborating, never certifying: the definitions quantify
over all graph pairs in a neighborhood, a sample can only bound them.
The strong-modulus estimate is the worst pairwise Rayleigh-type ratio.
Both estimators reduce the pairs block by block through
:mod:`fullstab.pairs`, so their memory does not grow with the pair count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import ETA, SEED, TOL_INEQ
from .errors import DegenerateSampleError, InconsistencyError, InputError
from .modelspec import ParametricModel, ReferenceTriple, eval_f
from .pairs import Pairs, diff, pair_extreme
from .visolver import solve_faces

__all__ = [
    "GraphSample",
    "MonotonicityEstimate",
    "graph_sample_from_model",
    "estimate_moduli",
    "estimate_from_inverse",
]

_DEGENERATE = 1e-12


@dataclass
class GraphSample:
    """Pairs (u_i, v_i) with v_i in T(u_i)."""

    u: np.ndarray  # (N, n)
    v: np.ndarray  # (N, n)

    def __post_init__(self):
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.v = np.atleast_2d(np.asarray(self.v, dtype=float))
        if self.u.shape != self.v.shape or self.u.shape[0] == 0:
            raise InputError("graph sample needs matching nonempty u, v stacks")

    def __len__(self):
        return self.u.shape[0]

    @classmethod
    def from_csv(cls, text: str, n: int) -> "GraphSample":
        """Columns u1..un, v1..vn; '#' comments.  Only the first
        non-comment line may be a header; a later non-numeric row or a
        non-finite entry is an input error naming its line."""
        rows = []
        header_seen = False
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [s.strip() for s in line.split(",")]
            if any(not _is_number(s) for s in parts):
                if rows or header_seen:
                    raise InputError(f"CSV line {lineno} is not numeric: {line!r}")
                header_seen = True
                continue
            if len(parts) != 2 * n:
                raise InputError(
                    f"CSV line {lineno} has {len(parts)} columns, expected {2 * n}"
                )
            values = [float(s) for s in parts]
            if not np.all(np.isfinite(values)):
                raise InputError(f"CSV line {lineno} has a non-finite entry: {line!r}")
            rows.append(values)
        if not rows:
            raise InputError("CSV contains no sample rows")
        data = np.array(rows)
        return cls(u=data[:, :n], v=data[:, n:])

    def inverse(self) -> "GraphSample":
        return GraphSample(u=self.v.copy(), v=self.u.copy())


def graph_sample_from_model(
    model: ParametricModel,
    ref: ReferenceTriple,
    eta: float = ETA,
    count: int = 100,
    seed: int = SEED,
) -> GraphSample:
    """Pairs (x, v) on the graph of T = f(., p) + N_{C(p)}(.) with the
    basic parameter frozen at the reference."""
    x0, p0, v0 = ref.as_arrays()
    rng = np.random.default_rng(seed)
    us, vs = [], []
    if model.m == 0:
        for _ in range(count):
            x = x0 + eta * rng.uniform(-1, 1, size=model.n)
            v = eval_f(model, x, p0)
            if np.linalg.norm(v - v0) <= eta * 10:
                us.append(x)
                vs.append(v)
    else:
        attempts = 0
        while len(us) < count and attempts < 40 * count:
            attempts += 1
            v = v0 + eta * rng.uniform(-1, 1, size=model.n)
            outs = solve_faces(model, v, p0, box_center=x0)
            if len(outs) == 1:
                us.append(outs[0].x)
                vs.append(v)
    if len(us) < 2:
        raise DegenerateSampleError("could not sample the operator graph")
    return GraphSample(u=np.array(us), v=np.array(vs))


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


@dataclass
class MonotonicityEstimate:
    kappa_hat: float  # strong modulus estimate (may be negative)
    r_hat: float  # hypomonotonicity constant max(0, -kappa_hat)
    witness: tuple  # (i, j) indices of the extremal pair
    pair_count: int

    def to_json_dict(self):
        return {
            "kappa_hat": self.kappa_hat,
            "r_hat": self.r_hat,
            "witness_pair": list(self.witness),
            "pairs": self.pair_count,
            "verdict": f"corroborated on {self.pair_count} pairs",
        }


def _pair_ratios(u: np.ndarray, v: np.ndarray, rows=None):
    """The least pair ratio <dv, du>/||du||^2 over the unordered pairs of
    the points (of ``rows`` of them when given), degenerate pairs skipped:
    (number of kept pairs, least ratio, its first pair of row indices).
    The walk is skipped when :func:`_all_degenerate` proves it keeps no
    pair."""

    def ratios(ii, jj):
        du = diff(u, ii, jj)
        sq = np.einsum("ij,ij->i", du, du)
        keep = np.sqrt(sq) > _DEGENERATE
        dv = diff(v, ii[keep], jj[keep])
        return ((keep, np.einsum("ij,ij->i", dv, du[keep]) / sq[keep]),)

    if _all_degenerate(u if rows is None else u[rows]):
        return 0, None, None
    count = u.shape[0] if rows is None else rows.size
    (least,) = pair_extreme(Pairs(count, rows=rows), ratios, (False,))
    return least


def _all_degenerate(u: np.ndarray) -> bool:
    """Whether every pair of the rows of u fails the test sqrt(<du, du>) >
    _DEGENERATE of :func:`_pair_ratios`, proved from the column spans s_c =
    max - min.  Rounding is monotone, so each computed |du_c| is at most
    s_c and each computed norm at most sqrt(n) max_c s_c up to a few
    relative roundings, which the factor 2 covers.  NaN spans prove
    nothing."""
    spans = np.max(u, axis=0) - np.min(u, axis=0)
    return bool(2.0 * np.sqrt(u.shape[1]) * np.max(spans, initial=0.0) <= _DEGENERATE)


def estimate_moduli(sample: GraphSample) -> MonotonicityEstimate:
    """Worst-pair strong-monotonicity modulus over the sample.

    kappa_hat = min over unordered pairs of <v1-v2, u1-u2>/||u1-u2||^2;
    the witness pair reproduces the reported ratio exactly.
    """
    if len(sample) < 2:
        raise DegenerateSampleError("need at least 2 graph points")
    count, kappa, witness = _pair_ratios(sample.u, sample.v)
    if count == 0:
        raise DegenerateSampleError("all pairs degenerate (coincident u's)")
    kappa = float(kappa)
    return MonotonicityEstimate(
        kappa_hat=kappa,
        r_hat=max(0.0, -kappa),
        witness=witness,
        pair_count=count,
    )


def estimate_from_inverse(sample: GraphSample) -> float:
    """Largest pairwise Lipschitz ratio of the localization and the
    consistency bound L_hat <= 1/kappa_hat (an identity at sample level
    when kappa_hat > 0; a violation is an internal bug, not data), with
    kappa_hat the :func:`estimate_moduli` of the swapped sample.  One walk
    over the pairs gathers each block once for both extremes."""
    V = sample.u
    X = sample.v
    N = V.shape[0]
    if N < 2:
        raise DegenerateSampleError("need at least 2 graph points")

    def extremes(ii, jj):
        dV, dX = diff(V, ii, jj), diff(X, ii, jj)
        dv, dx = np.linalg.norm(dV, axis=1), np.linalg.norm(dX, axis=1)
        lip = dv > _DEGENERATE
        # the pair ratio of the swapped sample, as _pair_ratios forms it
        sq = np.einsum("ij,ij->i", dX, dX)
        ratio = np.sqrt(sq) > _DEGENERATE
        return (
            (lip, dx[lip] / dv[lip]),
            (ratio, np.einsum("ij,ij->i", dV[ratio], dX[ratio]) / sq[ratio]),
        )

    (count, L_hat, _), (ratios, kappa, _) = pair_extreme(Pairs(N), extremes, (True, False))
    if count == 0:
        raise DegenerateSampleError("all pairs degenerate (coincident v's)")
    if ratios == 0:
        raise DegenerateSampleError("all pairs degenerate (coincident u's)")
    L_hat, kappa = float(L_hat), float(kappa)
    if kappa > 0 and L_hat > 1.0 / kappa + TOL_INEQ:
        raise InconsistencyError(f"L_hat = {L_hat} exceeds 1/kappa_hat = {1.0 / kappa}")
    return L_hat
