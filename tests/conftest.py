"""Shared fixtures."""

import pytest

import luroth.simulation


@pytest.fixture
def cores(monkeypatch):
    """cores(n) makes the samplers see n usable cores until the test ends.

    It returns a list that records each count read, one entry per read.
    """
    def use(n):
        asked = []
        monkeypatch.setattr(luroth.simulation, "_usable_cores", lambda: asked.append(n) or n)
        return asked
    return use
