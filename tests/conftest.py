import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fullstab.kkt import multiplier_polytope
from fullstab.modelspec import ReferenceTriple, eval_bundle, eval_reference, parse_model
from fullstab.polycone import active_indices

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

# phi_1 = -1/10^7 at the reference: |phi_1| is just above the double
# TOL_ACT in Fractions and equal to it in floats
BOUNDARY_TOL_ACT = (
    "dims n=1 d=1\nf = (x1 + p1 - 1/10)\n"
    "constraint x1 - 1/10 - 1/10000000 <= 0\n"
    "reference x=(1/10) p=(0) v=(0)\n"
)


def half_planes(curve=""):
    """Model text of 13 half-planes -x1 + (k/7) x2 + curve <= 0, k = -6..6,
    all active at the reference (0, 0): one more than the face-enumeration
    cap."""
    rows = "".join(f"constraint -x1 + ({k}/7)*x2{curve} <= 0\n" for k in range(-6, 7))
    return f"dims n=2 d=0\nf = (x1, x2)\n{rows}reference x=(0, 0) p=() v=(0, 0)\n"


def exact_at(model, x, p, v=()):
    """The bundle that MFCQ, Lambda, the uniform test and the determinant
    probe read at (x, p), in Fractions when x, p and v are rational, and its
    active set: what ``certify`` builds at a reference (x, p, v)."""
    exact, _ = eval_reference(model, ReferenceTriple(tuple(x), tuple(p), tuple(v)))
    return exact, active_indices(exact.phi)


def floats_at(model, x, p):
    """The float bundle at (x, p), which the other pointwise checks read,
    and its active set."""
    floats = eval_bundle(model, x, p)
    return floats, active_indices(floats.phi)


def reference_jacobian(model):
    """The float x-Jacobian of f at the model's reference, as ``certify``
    passes it to ``build_localization``."""
    return eval_reference(model, model.reference)[1].jac_f


def reference_multipliers(model):
    """Lambda at the model's reference, as ``certify`` enumerates it."""
    ref = model.reference
    return multiplier_polytope(*exact_at(model, ref.x, ref.p, ref.v), ref.v)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # the acceptance tests print their own PASS lines; mirror failures so
    # every criterion emits exactly one pass/fail line
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and rep.failed:
        match = re.match(r"test_criterion_(\d+)", item.name)
        if match:
            print(f"\nACCEPTANCE {match.group(1)}: FAIL")


@pytest.fixture(scope="session")
def ex64_text():
    return (MODELS_DIR / "ex64.model").read_text()


@pytest.fixture(scope="session")
def ex64_model(ex64_text):
    return parse_model(ex64_text)


@pytest.fixture(scope="session")
def skew_text():
    return (MODELS_DIR / "skew.model").read_text()


@pytest.fixture(scope="session")
def skew_model(skew_text):
    return parse_model(skew_text)


@pytest.fixture(scope="session")
def identity_model():
    return parse_model("dims n=1 d=0\nf = (x1)\nreference x=(0) p=() v=(0)\n")


@pytest.fixture(scope="session")
def circle_model():
    return parse_model((MODELS_DIR / "circle.model").read_text())
