"""Fixtures for the code that runs two parts in forked children
(``gridbench.twoparts``): the ACOPF sweep and the detectors' tick walks."""

import os
import signal

import pytest

from gridbench import twoparts


@pytest.fixture
def no_child_left():
    """Fails the test after 30 s instead of letting it hang; after it, this
    process has no child, running or unreaped."""
    def hung(signum, frame):
        raise TimeoutError("a forked part hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks made through ``os.fork``."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def on_cpus(monkeypatch):
    """``on_cpus(n)`` makes ``two_parts`` see ``n`` usable CPUs."""
    def pin(n):
        monkeypatch.setattr(twoparts, "_usable_cpus", lambda: n)
    return pin
