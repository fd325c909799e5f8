"""Shared fixtures."""

import os

import pytest

from gnsparse import parallel

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def source_env():
    """Environment for a child interpreter that imports gnsparse from this
    checkout's ``src``, ahead of any installed copy."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)


@pytest.fixture
def forced_fork(monkeypatch):
    """Makes every run of more than one case fork after its first case, onto
    two CPUs whatever the host has.  The fixture gives the list that
    receives the pid of every worker forked, and checks at teardown that
    each one was reaped."""
    monkeypatch.setattr(parallel, "BREAK_EVEN_S", 0.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
