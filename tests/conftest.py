"""Shared fixtures."""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def source_env():
    """Environment for a child interpreter that imports gnsparse from this
    checkout's ``src``, ahead of any installed copy."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
