"""Fixtures shared by the whole suite."""

from __future__ import annotations

import pytest

from simplexgrad import regions


@pytest.fixture(autouse=True)
def empty_stencil_table():
    """Start and end every test with an empty stencil table, so no outcome depends on test order."""
    regions._STENCILS.clear()
    yield
    regions._STENCILS.clear()
