from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

from cdmgen.schema_index import load_schema_dir

FIXTURES = Path(__file__).parent / "fixtures"

sys.path.insert(0, str(Path(__file__).parent))

CONTRACT_TYPES = {
    "interest_rate_swap": "InterestRateSwap",
    "equity_swap": "EquitySwap",
    "equity_option": "EquityOption",
    "commodity_option": "CommodityOption",
    "foreign_exchange": "ForeignExchange",
    "credit_default_swap": "CreditDefaultSwap",
}


# How long a thread a test started may take to end once the test returns.
THREAD_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread it started still running, such as
    the workers of a call pool that was never shut down."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    for thread in left:
        thread.join(THREAD_GRACE_S / len(left))
    running = [thread.name for thread in left if thread.is_alive()]
    if running:
        pytest.fail(f"threads still running after the test: {running}")


@pytest.fixture(scope="session")
def tiny_schema_dir() -> Path:
    return FIXTURES / "tiny_schema"


@pytest.fixture(scope="session")
def cdm_schema_dir() -> Path:
    return FIXTURES / "cdm_schema"


@pytest.fixture(scope="session")
def examples_root() -> Path:
    return FIXTURES / "cdm_examples"


@pytest.fixture(scope="session")
def contracts_dir() -> Path:
    return FIXTURES / "contracts"


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return FIXTURES / "golden"


@pytest.fixture(scope="session")
def tiny_index(tiny_schema_dir):
    return load_schema_dir(tiny_schema_dir, "root.schema.json")


@pytest.fixture(scope="session")
def cdm_index(cdm_schema_dir):
    return load_schema_dir(cdm_schema_dir, "contract.schema.json")
