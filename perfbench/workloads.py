"""The benchmark's inputs: every model it certifies, with its own formulas.

Each model carries its file text and, apart from it, hand-written Python
formulas for f(x, p), the constraints phi_i(x, p) and their x-gradients.
The checks in ``checks.py`` use these formulas, never fullstab's parser or
evaluator.  The formulas take x and p as sequences of components: exact
when the components are ``Fraction``s, elementwise when they are numpy
arrays (one entry per table row).

Reference triples are built here, not copied: v = f(x, p) + sum_i lam_i
grad phi_i(x, p), evaluated exactly in Fractions from the benchmark's
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

WORKLOADS = ("ex64", "corpus", "curved")

# Options of acceptance criterion 7 for the 20 corpus instances.
CORPUS_ARGV = ("--samples", "80", "--grid-v", "3", "--grid-p", "3")
# Reduced localization grid for the 3-D curved model.
REDUCED_GRID_ARGV = ("--grid-v", "3", "--grid-p", "3")


@dataclass(frozen=True)
class BenchModel:
    """One certification input.

    ``body`` is the model text without its reference line, or ``None`` for
    a shipped model read from ``models/<shipped>``.  ``seed_base`` plus the
    workload seed gives the ``--seed`` passed to ``certify``, unless
    ``pinned_seed`` fixes it for every workload seed.  ``expect``
    is the verdict a run must give when it gives one (``None``: any
    verdict except ``inconsistent``).  ``known_fault`` names the error of
    a certification that exits 1 every time because of a known fault; it
    is counted as failed, and any other error fails the benchmark.
    """

    name: str
    n: int
    d: int
    f: Callable
    phi: tuple
    grad_phi: tuple
    x_ref: tuple
    p_ref: tuple
    lam_ref: tuple
    body: str | None = None
    shipped: str | None = None
    argv: tuple = ()
    seed_base: int = 0
    pinned_seed: int | None = None
    expect: str | None = None
    known_fault: str | None = None

    @property
    def m(self) -> int:
        return len(self.phi)

    def v_ref(self) -> tuple:
        x = tuple(F(c) for c in self.x_ref)
        p = tuple(F(c) for c in self.p_ref)
        v = list(self.f(x, p))
        for lam, grad in zip(self.lam_ref, self.grad_phi):
            if lam:
                g = grad(x, p)
                v = [vj + lam * gj for vj, gj in zip(v, g)]
        return tuple(F(c) for c in v)

    def text(self, models_dir: Path) -> str:
        if self.shipped is not None:
            return (models_dir / self.shipped).read_text()
        ref = "reference x=({}) p=({}) v=({})\n".format(
            _fmt(self.x_ref), _fmt(self.p_ref), _fmt(self.v_ref())
        )
        return self.body.rstrip("\n") + "\n" + ref

    def argv_for(self, workload_seed: int) -> list:
        seed = self.pinned_seed
        if seed is None:
            seed = self.seed_base + workload_seed
        return [*self.argv, "--seed", str(seed)]


def _fmt(values) -> str:
    return ", ".join(str(F(c)) for c in values)


def _const(*g):
    return lambda x, p: g


# ---------------------------------------------------------------------------
# ex64: the worked example, models/ex64.model

_CONE_GRADS = (
    _const(1, 0, -1), _const(-1, 0, -1), _const(0, 1, -1), _const(0, -1, -1),
)


def _cone_phi(shift2: bool):
    """Constraints of the shifted cone with apex (p1, p2, 0); without
    ``shift2`` the apex is (p1, 0, 0)."""
    s2 = (lambda p: p[1]) if shift2 else (lambda p: 0)
    return (
        lambda x, p: x[0] - x[2] - p[0],
        lambda x, p: -x[0] - x[2] + p[0],
        lambda x, p: x[1] - x[2] - s2(p),
        lambda x, p: -x[1] - x[2] + s2(p),
    )


EX64 = BenchModel(
    name="ex64", n=3, d=2, shipped="ex64.model", seed_base=7,
    # potential x3 + (1/4 + p2) x1 + p1 x2 + x3^2 - x1 x2
    f=lambda x, p: (F(1, 4) + p[1] - x[1], p[0] - x[0], 1 + 2 * x[2]),
    phi=_cone_phi(True), grad_phi=_CONE_GRADS,
    x_ref=(0, 0, 0), p_ref=(0, 0), lam_ref=(F(3, 8), F(5, 8), 0, 0),
    expect="fully_stable",
)


# ---------------------------------------------------------------------------
# corpus: the 20 instances of acceptance criterion 7, plus identity and skew

_BOX2 = (
    "dims n=2 d=1\nf = (2*x1 + x2 + p1, x1 + 2*x2)\n"
    "constraint x1 - 1 - p1 <= 0\nconstraint -x1 - 1 <= 0\n"
    "constraint x2 - 1 <= 0\nconstraint -x2 - 1 <= 0\n"
)
_BOX1 = (
    "dims n=1 d=1\nf = (3*x1 + p1)\n"
    "constraint x1 - 1 <= 0\nconstraint -x1 - p1 - 1 <= 0\n"
)
_BOX3 = (
    "dims n=3 d=1\nf = (2*x1, 3*x2 + p1, x3 + x1)\n"
    "constraint x1 - 1 <= 0\nconstraint x2 - 1 <= 0\nconstraint x3 - 1 <= 0\n"
    "constraint -x1 <= 0\nconstraint -x2 <= 0\nconstraint -x3 <= 0\n"
)
_SIMPLEX2 = (
    "dims n=2 d=1\nf = (2*x1 - x2 + p1, -x1 + 2*x2)\n"
    "constraint -x1 <= 0\nconstraint -x2 <= 0\nconstraint x1 + x2 - 1 <= 0\n"
)
_SIMPLEX3 = (
    "dims n=3 d=2\nf = (3*x1 + p1, 3*x2 + p2, 3*x3 + x1)\n"
    "constraint -x1 <= 0\nconstraint -x2 <= 0\nconstraint -x3 <= 0\n"
    "constraint x1 + x2 + x3 - 1 <= 0\n"
)
_CONE = (
    "dims n=3 d=2\npotential = x3 + (1/4 + p2)*x1 + p1*x2 + x3^2 {extra}\n"
    "constraint x1 - x3 - p1 <= 0\nconstraint -x1 - x3 + p1 <= 0\n"
    "constraint x2 - x3 - p2 <= 0\nconstraint -x2 - x3 + p2 <= 0\n"
)
_CONE_V2 = (
    "dims n=3 d=1\npotential = x3 + x1/2 + x3^2 + x1^2 + x2^2 + p1*x1\n"
    "constraint x1 - x3 - p1 <= 0\nconstraint -x1 - x3 + p1 <= 0\n"
    "constraint x2 - x3 <= 0\nconstraint -x2 - x3 <= 0\n"
)

_BOX2_DATA = dict(
    n=2, d=1, body=_BOX2,
    f=lambda x, p: (2 * x[0] + x[1] + p[0], x[0] + 2 * x[1]),
    phi=(
        lambda x, p: x[0] - 1 - p[0], lambda x, p: -x[0] - 1,
        lambda x, p: x[1] - 1, lambda x, p: -x[1] - 1,
    ),
    grad_phi=(_const(1, 0), _const(-1, 0), _const(0, 1), _const(0, -1)),
)
_BOX1_DATA = dict(
    n=1, d=1, body=_BOX1,
    f=lambda x, p: (3 * x[0] + p[0],),
    phi=(lambda x, p: x[0] - 1, lambda x, p: -x[0] - p[0] - 1),
    grad_phi=(_const(1), _const(-1)),
)
_BOX3_DATA = dict(
    n=3, d=1, body=_BOX3,
    f=lambda x, p: (2 * x[0], 3 * x[1] + p[0], x[2] + x[0]),
    phi=(
        lambda x, p: x[0] - 1, lambda x, p: x[1] - 1, lambda x, p: x[2] - 1,
        lambda x, p: -x[0], lambda x, p: -x[1], lambda x, p: -x[2],
    ),
    grad_phi=(
        _const(1, 0, 0), _const(0, 1, 0), _const(0, 0, 1),
        _const(-1, 0, 0), _const(0, -1, 0), _const(0, 0, -1),
    ),
)
_SIMPLEX2_DATA = dict(
    n=2, d=1, body=_SIMPLEX2,
    f=lambda x, p: (2 * x[0] - x[1] + p[0], -x[0] + 2 * x[1]),
    phi=(lambda x, p: -x[0], lambda x, p: -x[1], lambda x, p: x[0] + x[1] - 1),
    grad_phi=(_const(-1, 0), _const(0, -1), _const(1, 1)),
)
_SIMPLEX3_DATA = dict(
    n=3, d=2, body=_SIMPLEX3,
    f=lambda x, p: (3 * x[0] + p[0], 3 * x[1] + p[1], 3 * x[2] + x[0]),
    phi=(
        lambda x, p: -x[0], lambda x, p: -x[1], lambda x, p: -x[2],
        lambda x, p: x[0] + x[1] + x[2] - 1,
    ),
    grad_phi=(_const(-1, 0, 0), _const(0, -1, 0), _const(0, 0, -1), _const(1, 1, 1)),
)
# x-gradients of the three potentials x3 + (1/4 + p2) x1 + p1 x2 + x3^2 + extra
_CONE_EXTRAS = (
    ("- x1*x2", lambda x, p: (F(1, 4) + p[1] - x[1], p[0] - x[0], 1 + 2 * x[2])),
    ("+ x1^2 + x2^2",
     lambda x, p: (F(1, 4) + p[1] + 2 * x[0], p[0] + 2 * x[1], 1 + 2 * x[2])),
    ("+ x1^2/2 + x2^2/2 - x1*x2/4",
     lambda x, p: (F(1, 4) + p[1] + x[0] - x[1] / 4, p[0] + x[1] - x[0] / 4,
                   1 + 2 * x[2])),
)
_CONE_V2_DATA = dict(
    n=3, d=1, body=_CONE_V2,
    f=lambda x, p: (F(1, 2) + 2 * x[0] + p[0], 2 * x[1], 1 + 2 * x[2]),
    phi=_cone_phi(False), grad_phi=_CONE_GRADS,
)


def _corpus_instance(name, data, x_ref, p_ref, lam):
    return BenchModel(
        name=name, x_ref=tuple(x_ref), p_ref=tuple(p_ref), lam_ref=tuple(lam),
        argv=CORPUS_ARGV, seed_base=5, **data,
    )


def _corpus():
    z2, z3 = (0, 0), (0, 0, 0)
    models = [
        _corpus_instance("box2-a", _BOX2_DATA, (1, 0), (0,), (1, 0, 0, 0)),
        _corpus_instance("box2-b", _BOX2_DATA, z2, (0,), (0, 0, 0, 0)),
        _corpus_instance("box2-c", _BOX2_DATA, (1, 1), (0,), (1, 0, 2, 0)),
        _corpus_instance("box1-a", _BOX1_DATA, (1,), (0,), (2, 0)),
        _corpus_instance("box1-b", _BOX1_DATA, (-1,), (0,), (0, 1)),
        _corpus_instance("box3-a", _BOX3_DATA, z3, (0,), (0, 0, 0, 1, 1, 1)),
        _corpus_instance("box3-b", _BOX3_DATA, (1, 0, 1), (0,), (1, 0, 0, 0, 3, 0)),
        _corpus_instance("simplex2-a", _SIMPLEX2_DATA, z2, (0,), (1, 1, 0)),
        _corpus_instance("simplex2-b", _SIMPLEX2_DATA, (F(1, 2), F(1, 2)), (0,), (0, 0, 1)),
        _corpus_instance("simplex2-c", _SIMPLEX2_DATA, (F(1, 4), F(1, 4)), (0,), (0, 0, 0)),
        _corpus_instance("simplex2-d", _SIMPLEX2_DATA, (1, 0), (0,), (0, F(1, 2), 1)),
        _corpus_instance("simplex3-a", _SIMPLEX3_DATA, z3, (0, 0), (1, 1, 1, 0)),
        _corpus_instance("simplex3-b", _SIMPLEX3_DATA, (0, 0, F(1, 2)), (0, 0), (2, 1, 0, 0)),
        _corpus_instance(
            "simplex3-c", _SIMPLEX3_DATA, (F(1, 3), F(1, 3), F(1, 3)), (0, 0), (0, 0, 0, 1)
        ),
    ]
    for k, (extra, f) in enumerate(_CONE_EXTRAS):
        data = dict(
            n=3, d=2, body=_CONE.format(extra=extra), f=f,
            phi=_cone_phi(True), grad_phi=_CONE_GRADS,
        )
        models.append(_corpus_instance(f"cone-{k + 1}", data, z3, (0, 0), (F(3, 8), F(5, 8), 0, 0)))
    for k, lam in enumerate((
        (F(1, 4), F(3, 4), 0, 0), (0, F(1, 2), F(1, 4), F(1, 4)),
        (F(1, 8), F(5, 8), F(1, 8), F(1, 8)),
    )):
        models.append(_corpus_instance(f"cone-v2-{k + 1}", _CONE_V2_DATA, z3, (0,), lam))
    models.append(BenchModel(
        name="identity", n=1, d=0, shipped="identity.model",
        f=lambda x, p: (x[0],), phi=(), grad_phi=(),
        x_ref=(0,), p_ref=(), lam_ref=(), expect="fully_stable",
    ))
    models.append(BenchModel(
        name="skew", n=2, d=0, shipped="skew.model",
        f=lambda x, p: (x[0], -x[1]), phi=(), grad_phi=(),
        x_ref=(0, 0), p_ref=(), lam_ref=(), expect="not_fully_stable",
    ))
    return tuple(models)


# ---------------------------------------------------------------------------
# curved: nonlinear f and curved constraints, n = 1..3


def _curved():
    return (
        BenchModel(
            name="cubic", n=1, d=1,
            body="dims n=1 d=1\nf = (x1^3 + x1 + p1)\n",
            f=lambda x, p: (x[0] ** 3 + x[0] + p[0],), phi=(), grad_phi=(),
            x_ref=(0,), p_ref=(0,), lam_ref=(), expect="fully_stable",
        ),
        BenchModel(
            name="disk-inactive", n=2, d=1,
            body=(
                "dims n=2 d=1\nf = (2*x1 + p1, x2 + x2^3 - x1/2)\n"
                "constraint x1^2 + x2^2 - 1 <= 0\n"
            ),
            f=lambda x, p: (2 * x[0] + p[0], x[1] + x[1] ** 3 - x[0] / 2),
            phi=(lambda x, p: x[0] ** 2 + x[1] ** 2 - 1,),
            grad_phi=(lambda x, p: (2 * x[0], 2 * x[1]),),
            x_ref=(0, 0), p_ref=(0,), lam_ref=(0,), expect="fully_stable",
        ),
        BenchModel(
            # active at the reference with a zero multiplier
            name="paraboloid-active", n=2, d=1,
            body=(
                "dims n=2 d=1\nf = (x1 + x1^3 + p1, x2)\n"
                "constraint x1^2 - x2 + p1 <= 0\n"
            ),
            f=lambda x, p: (x[0] + x[0] ** 3 + p[0], x[1]),
            phi=(lambda x, p: x[0] ** 2 - x[1] + p[0],),
            grad_phi=(lambda x, p: (2 * x[0], -1),),
            x_ref=(0, 0), p_ref=(0,), lam_ref=(0,), expect="fully_stable",
        ),
        BenchModel(
            name="sphere-3d", n=3, d=1, argv=REDUCED_GRID_ARGV,
            body=(
                "dims n=3 d=1\nf = (x1 + x1^3 + p1, x2 + x2*x3/2, x3 + x3^3)\n"
                "constraint x1^2 + x2^2 + x3^2 - 1 <= 0\n"
            ),
            f=lambda x, p: (x[0] + x[0] ** 3 + p[0], x[1] + x[1] * x[2] / 2,
                            x[2] + x[2] ** 3),
            phi=(lambda x, p: x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 1,),
            grad_phi=(lambda x, p: (2 * x[0], 2 * x[1], 2 * x[2]),),
            x_ref=(0, 0, 0), p_ref=(0,), lam_ref=(0,), expect="fully_stable",
        ),
        BenchModel(
            # The reference sits on the circle with multiplier 1/2.  The
            # ambient-ball rejection sampler of check_gusosc almost never
            # lands within tol_act of {phi = 0}: at certify seed 0 no draw
            # does, and certify exits 1 after its 40000 attempts.  At some
            # other seeds one to three draws do and a verdict comes out, so
            # the seed is pinned to keep the failure the same in every run.
            name="circle", n=2, d=1, pinned_seed=0,
            body="dims n=2 d=1\nf = (x1 + p1, x2)\nconstraint x1^2 + x2^2 - 1 <= 0\n",
            f=lambda x, p: (x[0] + p[0], x[1]),
            phi=(lambda x, p: x[0] ** 2 + x[1] ** 2 - 1,),
            grad_phi=(lambda x, p: (2 * x[0], 2 * x[1]),),
            x_ref=(1, 0), p_ref=(0,), lam_ref=(F(1, 2),),
            expect="fully_stable", known_fault="DegenerateSampleError",
        ),
    )


def models_for(workload: str) -> tuple:
    if workload == "ex64":
        return (EX64,)
    if workload == "corpus":
        return _corpus()
    if workload == "curved":
        return _curved()
    raise ValueError(f"unknown workload {workload!r}")
