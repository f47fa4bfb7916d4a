import pytest
from hypothesis import settings

from graphstates import orbits
from graphstates.graphs import enumerate_connected

# One profile for every property test: the same examples on every run, no
# per-example deadline on a shared host, and a bounded example count.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def connected_classes():
    """Canonical representatives of all connected isomorphism classes, n = 2..7."""
    return {n: tuple(enumerate_connected(n)) for n in range(2, 8)}


@pytest.fixture(scope="session")
def classification7():
    """(records, member stats) for the full classification up to 7 vertices."""
    return orbits.classify_full(7)
