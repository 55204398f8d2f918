import pytest

import frobseries.frobenius


@pytest.fixture(autouse=True)
def empty_route_slot():
    """Start every test with the routes' slot empty, so that no spy or
    patched build reads a series that an earlier test left there."""
    frobseries.frobenius._route_slot[0] = None
