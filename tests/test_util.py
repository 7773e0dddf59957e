import os

import pytest

from multivital._util import thread_count
from multivital.errors import ConfigError


def test_thread_count_follows_cpu_affinity(monkeypatch):
    # A process pinned to one CPU gets one worker, however many the host has.
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("platform has no CPU affinity")
    monkeypatch.delenv("MULTIVITAL_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert thread_count() == 1
    monkeypatch.setenv("MULTIVITAL_THREADS", "0")
    assert thread_count() == 1


def test_thread_count_caps_auto_at_eight(monkeypatch):
    monkeypatch.delenv("MULTIVITAL_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 32)
    assert thread_count() == 8
    monkeypatch.setenv("MULTIVITAL_THREADS", "12")
    assert thread_count() == 12


@pytest.mark.parametrize("raw", ["-1", "two"])
def test_thread_count_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("MULTIVITAL_THREADS", raw)
    with pytest.raises(ConfigError):
        thread_count()
