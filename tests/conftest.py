import logging
import zlib

import pytest

from locprov import fanout
from locprov.experiments import build_honest_chain

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


def _flip_last_bit(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


def _half(data: bytes) -> bytes:
    return data[:len(data) // 2]


def _text_past_end(body: bytes) -> bytes:
    """``body`` with the 4-byte length of its first "lib-2" text raised to
    2^32 - 1 and every byte after it kept: the text runs past the end."""
    at = body.index(b"\x00\x00\x00\x05lib-2")
    return body[:at] + b"\xff" * 4 + body[at + 4:]


# Hostile deflated bodies of chain and registry files: name -> (the body,
# made from a file's canonical bytes; a fragment of the FormatError it must
# raise). 16 MiB of zeros deflate 1,028:1, past the 1,024:1 cap. Bodies
# are decoded as they inflate; a fault of the stream is reported over one
# of the encoding in it, so the bomb, whose first byte is no type tag,
# still reads as a bomb.
DEFLATE_ATTACKS = {
    "bomb": (lambda body: zlib.compress(bytes(16 << 20)), "inflates past"),
    "truncated": (lambda body: zlib.compress(body)[:-10],
                  "truncated deflate stream"),
    "truncated-mid-body": (lambda body: _half(zlib.compress(body)),
                           "truncated deflate stream"),
    "truncated-bad-tag": (lambda body: zlib.compress(b"\x7f" + body[1:])[:-10],
                          "truncated deflate stream"),
    "trailing-bytes": (lambda body: zlib.compress(body) + b"\0",
                       "trailing bytes after its deflate stream"),
    "encoding-ends-first": (lambda body: zlib.compress(body + b"\0"),
                            "trailing bytes after encoding"),
    "length-past-end": (lambda body: zlib.compress(_text_past_end(body)),
                        "truncated encoding"),
    "bad-adler32": (lambda body: _flip_last_bit(zlib.compress(body)),
                    "incorrect data check"),
    "not-deflated": (lambda body: body, "does not inflate"),
}


@pytest.fixture(params=sorted(DEFLATE_ATTACKS))
def deflate_attack(request):
    """One of ``DEFLATE_ATTACKS``: a hostile body maker and its error."""
    return DEFLATE_ATTACKS[request.param]


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
    processes; return both results."""

    def run(check):
        monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)
        serial = check()
        monkeypatch.setattr(fanout, "_cpu_count", lambda: 3)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="locprov.fanout"):
            fanned_out = check()
        assert "in 3 processes" in caplog.text
        return serial, fanned_out
    return run
