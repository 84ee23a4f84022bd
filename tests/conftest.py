import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fullstab.modelspec import parse_model

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


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
