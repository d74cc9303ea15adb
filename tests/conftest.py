import logging

import pytest

from locprov import fanout
from locprov.cli import build_honest_chain

# building 10,000-entry chains through the whole protocol is the expensive
# part of the suite; do it once per scheme and share
_chain_cache: dict = {}


@pytest.fixture(scope="session")
def honest_chain_factory():
    def factory(scheme: str, n: int):
        key = (scheme, n)
        if key not in _chain_cache:
            _chain_cache[key] = build_honest_chain(scheme, n)
        return _chain_cache[key]
    return factory


@pytest.fixture(autouse=True)
def no_verify_workers():
    """Each test starts and ends without verify workers: a worker forked
    under one test's monkeypatches would answer the next test's batches."""
    fanout._shutdown()
    yield
    fanout._shutdown()


@pytest.fixture()
def serial_and_fanned_out(monkeypatch, caplog):
    """Run ``check`` once in the calling process and once split over three
    processes with no size threshold; return both results."""

    def run(check):
        monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)
        serial = check()
        monkeypatch.setattr(fanout, "_cpu_count", lambda: 3)
        monkeypatch.setattr(fanout, "FANOUT_MIN_JOBS", 2)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="locprov.fanout"):
            fanned_out = check()
        assert "in 3 processes" in caplog.text
        return serial, fanned_out
    return run
