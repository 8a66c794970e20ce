"""Shared fixtures."""

import multiprocessing

import pytest

import dedsum.scans


@pytest.fixture(autouse=True)
def no_process_outlives_a_test():
    """Fail a test after which a child process is still running, and end
    that process, so that neither a later test nor the end of the session
    waits on it."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.kill()
        child.join()
    assert children == [], f"processes left running: {children}"


@pytest.fixture
def no_scan_may_start(monkeypatch):
    """Make every scan's work fail at once, so a test of up-front
    validation fails fast instead of running a scan to a huge bound."""

    def started(*args, **kwargs):
        raise AssertionError("a scan started")

    monkeypatch.setattr(dedsum.scans, "_Batch", started)
