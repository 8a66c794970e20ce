"""Shared fixtures."""

import pytest

import dedsum.scans


@pytest.fixture
def no_scan_may_start(monkeypatch):
    """Make every scan's work fail at once, so a test of up-front
    validation fails fast instead of running a scan to a huge bound."""

    def started(*args, **kwargs):
        raise AssertionError("a scan started")

    monkeypatch.setattr(dedsum.scans, "_Batch", started)
