"""Traced mode: spans and counts recorded around the program's public
functions, from outside the program.

Each function is wrapped under the name by which its caller looks it up
(``audit`` imports ``check_inclusion`` by name, so ``audit.check_inclusion``
is wrapped; ``protocol`` calls ``hashchain.chain_extend`` through the
module, so ``hashchain.chain_extend`` is). A span records its name, start,
end and the span open when it started. Spans stay in memory until the run
ends. Recursive calls of a function inside its own span (``canonical_encode``
encodes nested objects through itself) are not recorded again.

Per-layer values are given for one set-up and one round: spans and counts
from the set-up are taken once, those from the timed loop are divided by
the number of rounds run. Every round does the same work, so counts come
out as whole numbers.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

from locprov import bloom, crypto, epochs, hashchain, model, protocol
from locprov import serialize

# The package exports the function ``audit`` under the module's name.
audit = importlib.import_module("locprov.audit")

# (span name, owner, attribute): timed spans.
SPANNED = [
    ("crypto.sign", crypto.CryptoProfile, "sign"),
    ("crypto.verify", crypto.CryptoProfile, "verify"),
    ("model.canonical_encode", model, "canonical_encode"),
    ("model.canonical_encode", protocol, "canonical_encode"),
    ("model.canonical_encode", hashchain, "canonical_encode"),
    ("model.canonical_encode", audit, "canonical_encode"),
    ("model.chain_append", model.ProvenanceChain, "append"),
    ("model.reveal", model, "make_revealed_subsequence"),
    ("hashchain.extend", hashchain, "chain_genesis"),
    ("hashchain.extend", hashchain, "chain_extend"),
    ("hashchain.verify", audit, "chain_verify_subsequence"),
    ("bloom.insert", protocol, "bloom_insert"),
    ("bloom.insert", epochs, "bloom_insert"),
    ("bloom.verify", audit, "bloom_order_verify"),
    ("epochs.build", protocol, "build_epoch_report"),
    ("epochs.lookup", epochs.EpochRegistry, "lookup"),
    ("epochs.inclusion", audit, "check_inclusion"),
    ("protocol.run_visit", protocol.World, "run_visit"),
    ("protocol.advance", protocol.World, "advance"),
    ("protocol.finalize_epochs", protocol.World, "finalize_epochs"),
    ("audit.audit", audit, "audit"),
    ("serialize.load", serialize, "load_chain_file"),
    ("serialize.load", serialize, "load_claims_file"),
    ("serialize.load", serialize, "load_registry_file"),
    ("serialize.dump", serialize, "dump_chain_file"),
    ("serialize.dump", serialize, "dump_claims_file"),
    ("serialize.dump", serialize, "dump_registry_file"),
    ("serialize.dump", serialize, "dump_audit_report_file"),
]

# (count name, owner, attribute): calls counted without a span, either
# because they are too frequent to time cheaply or only their number matters.
COUNTED = [
    ("crypto.digest", crypto.CryptoProfile, "digest"),
    ("crypto.commit", crypto.CryptoProfile, "commit"),
    ("hashchain.verify_link", hashchain, "verify_link"),
    ("bloom.verify_accumulator", bloom, "verify_accumulator"),
    ("epochs.verify_report", epochs, "verify_report"),
    ("protocol.message", protocol.MessageBus, "send"),
]

# Amounts read off the arguments of a call: name -> (span or count, function).
AMOUNTS = {
    "bloom.insert": ("bloom.insert.bytes_copied", lambda a: len(a[1].bits)),
    "epochs.build": ("epochs.reports_empty", lambda a: int(len(a[5]) == 0)),
    "audit.audit": ("audit.claims", lambda a: len(a[1])),
    "serialize.load": ("serialize.load_bytes", lambda a: len(a[0])),
}

# (metric, unit, better) in the order they are printed.
PER_LAYER = [
    ("crypto.sign.calls", "count", "lower"),
    ("crypto.sign.busy_s", "s", "lower"),
    ("crypto.verify.calls", "count", "lower"),
    ("crypto.verify.busy_s", "s", "lower"),
    ("crypto.digest.calls", "count", "lower"),
    ("crypto.commit.calls", "count", "lower"),
    ("model.canonical_encode.calls", "count", "lower"),
    ("model.canonical_encode.busy_s", "s", "lower"),
    ("model.chain_append.busy_s", "s", "lower"),
    ("model.reveal.busy_s", "s", "lower"),
    ("hashchain.extend.calls", "count", "lower"),
    ("hashchain.verify.busy_s", "s", "lower"),
    ("hashchain.verify.self_s", "s", "lower"),
    ("hashchain.links_checked", "count", "lower"),
    ("bloom.insert.calls", "count", "lower"),
    ("bloom.insert.self_s", "s", "lower"),
    ("bloom.insert.bytes_copied", "B", "lower"),
    ("bloom.verify.busy_s", "s", "lower"),
    ("bloom.verify.self_s", "s", "lower"),
    ("bloom.accumulators_checked", "count", "lower"),
    ("epochs.reports_built", "count", "lower"),
    ("epochs.reports_empty", "count", "lower"),
    ("epochs.build.busy_s", "s", "lower"),
    ("epochs.lookup.calls", "count", "lower"),
    ("epochs.lookup.busy_s", "s", "lower"),
    ("epochs.inclusion.calls", "count", "lower"),
    ("epochs.inclusion.busy_s", "s", "lower"),
    ("epochs.report_verifies_per_report", "ratio", "lower"),
    ("protocol.visits", "count", "higher"),
    ("protocol.messages", "count", "lower"),
    ("protocol.run_visit.busy_s", "s", "lower"),
    ("protocol.self_s", "s", "lower"),
    ("audit.presentations", "count", "higher"),
    ("audit.claims", "count", "higher"),
    ("audit.busy_s", "s", "lower"),
    ("audit.self_s", "s", "lower"),
    ("audit.verifies_per_claim", "ratio", "lower"),
    ("serialize.load.busy_s", "s", "lower"),
    ("serialize.load_bytes", "B", "lower"),
    ("serialize.dump.busy_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.reports_verified: set = set()
        self.on = True
        self.setup_spans = 0
        self.setup_counts: Counter = Counter()
        self._undo: list = []

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for name, owner, attr in SPANNED:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        for name, owner, attr in COUNTED:
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        amount = AMOUNTS.get(name)

        def wrapper(*args, **kwargs):
            if not self.on or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            if amount is not None:
                counts[amount[0]] += amount[1](args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        distinct_reports = name == "epochs.verify_report"

        def wrapper(*args, **kwargs):
            if self.on:
                counts[name] += 1
                if distinct_reports:
                    report = args[2]
                    self.reports_verified.add(
                        (report.location_id, report.epoch_id))
            return fn(*args, **kwargs)
        return wrapper

    def end_setup(self) -> None:
        self.setup_spans = len(self.spans)
        self.setup_counts = Counter(self.counts)

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer values for one set-up and one round."""
        n = len(self.spans)
        duration = [s[2] - s[1] for s in self.spans]
        child_time = [0.0] * n
        inside_audit = [False] * n
        for i, (name, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += duration[i]
                inside_audit[i] = (inside_audit[parent]
                                   or self.spans[parent][0] == "audit.audit")

        calls = [Counter(), Counter()]
        busy = [defaultdict(float), defaultdict(float)]
        self_time = [defaultdict(float), defaultdict(float)]
        audit_verifies = [0, 0]
        for i, (name, _, _, _) in enumerate(self.spans):
            phase = 0 if i < self.setup_spans else 1
            calls[phase][name] += 1
            busy[phase][name] += duration[i]
            self_time[phase][name] += duration[i] - child_time[i]
            layer = name.split(".")[0]
            if layer == "protocol":
                self_time[phase]["protocol"] += duration[i] - child_time[i]
            if name == "crypto.verify" and inside_audit[i]:
                audit_verifies[phase] += 1

        def per_round(setup_value, loop_value):
            return setup_value + loop_value / rounds

        def span_calls(name):
            return per_round(calls[0][name], calls[1][name])

        def span_busy(name):
            return per_round(busy[0][name], busy[1][name])

        def span_self(name):
            return per_round(self_time[0][name], self_time[1][name])

        def count(name):
            return per_round(self.setup_counts[name],
                             self.counts[name] - self.setup_counts[name])

        claims = count("audit.claims")
        report_verifies = count("epochs.verify_report")
        return {
            "crypto.sign.calls": span_calls("crypto.sign"),
            "crypto.sign.busy_s": span_busy("crypto.sign"),
            "crypto.verify.calls": span_calls("crypto.verify"),
            "crypto.verify.busy_s": span_busy("crypto.verify"),
            "crypto.digest.calls": count("crypto.digest"),
            "crypto.commit.calls": count("crypto.commit"),
            "model.canonical_encode.calls": span_calls("model.canonical_encode"),
            "model.canonical_encode.busy_s": span_busy("model.canonical_encode"),
            "model.chain_append.busy_s": span_busy("model.chain_append"),
            "model.reveal.busy_s": span_busy("model.reveal"),
            "hashchain.extend.calls": span_calls("hashchain.extend"),
            "hashchain.verify.busy_s": span_busy("hashchain.verify"),
            "hashchain.verify.self_s": span_self("hashchain.verify"),
            "hashchain.links_checked": count("hashchain.verify_link"),
            "bloom.insert.calls": span_calls("bloom.insert"),
            "bloom.insert.self_s": span_self("bloom.insert"),
            "bloom.insert.bytes_copied": count("bloom.insert.bytes_copied"),
            "bloom.verify.busy_s": span_busy("bloom.verify"),
            "bloom.verify.self_s": span_self("bloom.verify"),
            "bloom.accumulators_checked": count("bloom.verify_accumulator"),
            "epochs.reports_built": span_calls("epochs.build"),
            "epochs.reports_empty": count("epochs.reports_empty"),
            "epochs.build.busy_s": span_busy("epochs.build"),
            "epochs.lookup.calls": span_calls("epochs.lookup"),
            "epochs.lookup.busy_s": span_busy("epochs.lookup"),
            "epochs.inclusion.calls": span_calls("epochs.inclusion"),
            "epochs.inclusion.busy_s": span_busy("epochs.inclusion"),
            "epochs.report_verifies_per_report": (
                report_verifies / len(self.reports_verified)
                if self.reports_verified else 0.0),
            "protocol.visits": span_calls("protocol.run_visit"),
            "protocol.messages": count("protocol.message"),
            "protocol.run_visit.busy_s": span_busy("protocol.run_visit"),
            "protocol.self_s": span_self("protocol"),
            "audit.presentations": span_calls("audit.audit"),
            "audit.claims": claims,
            "audit.busy_s": span_busy("audit.audit"),
            "audit.self_s": span_self("audit.audit"),
            "audit.verifies_per_claim": (
                per_round(*audit_verifies) / claims if claims else 0.0),
            "serialize.load.busy_s": span_busy("serialize.load"),
            "serialize.load_bytes": count("serialize.load_bytes"),
            "serialize.dump.busy_s": span_busy("serialize.dump"),
        }

    def write(self, path) -> None:
        """One JSON array per line: name, start and end in seconds from the
        first span, parent line index (-1 for none), phase."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for i, (name, start, end, parent) in enumerate(self.spans):
                phase = "setup" if i < self.setup_spans else "run"
                out.write(json.dumps([name, round(start - origin, 9),
                                      round(end - origin, 9), parent, phase]))
                out.write("\n")
