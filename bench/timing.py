"""Timing scaled to a reference speed of the machine.

The benchmark shares its CPU with other tenants, and the speed a process
gets drifts by up to a factor of two from one second to the next and from
one minute to the next (a fixed loop of Ed25519 verifies took 65 ms in one
second and 125 ms a few seconds later). Process CPU time drifts the same
way, so a different clock does not help.

Every stretch of timed program work is therefore bracketed and interleaved
with slices of a fixed probe: the same Ed25519, SHA-256, JSON and bytes
work each time, none of it locprov code, so no change to the program
changes the probe. A stopwatch multiplies the program time between two
probe slices by ``REFERENCE_PROBE_S`` over the mean of those two slices:
seconds at the machine's reference speed. The raw figures are kept
alongside for the record.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Median probe slice time on the machine the benchmark was defined on (a
# 2-vCPU Intel Xeon guest at 2.0 GHz). It sets the unit only: a comparison of
# two commits divides one median by another and the constant cancels.
REFERENCE_PROBE_S = 0.007
# Program time between two probe slices.
PROBE_EVERY_S = 0.2
PROBE_ROUNDS = 16

_SEED = bytes(range(32))
_MESSAGE = bytes(range(200))


class Probe:
    """Fixed work mixing native crypto and interpreter work, as the
    program does: key loading, signing, verifying, hashing, building and
    dumping small records, joining bytes."""

    def __init__(self):
        self.public = Ed25519PrivateKey.from_private_bytes(_SEED).public_key()

    def run(self) -> float:
        started = perf_counter()
        for i in range(PROBE_ROUNDS):
            signature = Ed25519PrivateKey.from_private_bytes(_SEED).sign(_MESSAGE)
            self.public.verify(signature, _MESSAGE)
            digest = hashlib.sha256(_MESSAGE + i.to_bytes(4, "big")).digest()
            record = {f"field{j}": (j, digest[j:j + 8].hex()) for j in range(12)}
            text = json.dumps({"seq": i, "record": record}, sort_keys=True)
            joined = b"".join([len(text).to_bytes(4, "big"), text.encode(),
                               signature, digest])
            int.from_bytes(joined[:64], "little") & int.from_bytes(
                signature, "little")
            mixed = 0
            for j in range(400):
                mixed = (mixed * 31 + joined[j % len(joined)]) & 0xFFFFFFFF
        return perf_counter() - started


class Stopwatch:
    """Accumulates the time of program calls made through ``call``. Each
    stretch of program time between two probe slices is scaled by the mean
    of those two slices, so the scaling follows the machine's speed as it
    changes during a round."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.seconds = 0.0
        self.scaled_seconds = 0.0
        self._last_probe = probe.run()
        self._chunk = 0.0

    def call(self, fn, *args, **kwargs):
        started = perf_counter()
        result = fn(*args, **kwargs)
        self._chunk += perf_counter() - started
        if self._chunk >= PROBE_EVERY_S:
            self._scale_chunk()
        return result

    def stop(self) -> None:
        self._scale_chunk()

    def _scale_chunk(self) -> None:
        probe = self.probe.run()
        mean = (self._last_probe + probe) / 2
        self.seconds += self._chunk
        self.scaled_seconds += self._chunk * REFERENCE_PROBE_S / mean
        self._last_probe = probe
        self._chunk = 0.0

    @property
    def speed(self) -> float:
        """Above 1 when the machine ran faster than its reference speed."""
        return self.scaled_seconds / self.seconds if self.seconds else 1.0
