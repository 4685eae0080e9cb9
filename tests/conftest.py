"""Suite-wide checks."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_left():
    """Every worker process a test starts has been joined when it ends."""
    yield
    assert multiprocessing.active_children() == []
