"""Witness-endorsed location proofs and tamper-evident provenance chains.

A location authority signs statements of a user's presence; co-located
witnesses endorse them, which is what makes user-authority collusion
visible; entries carry chronological-ordering metadata under one of two
schemes (signed hash chain, or signed Bloom-filter accumulator) so that a
user can prove the order of any subsequence of their history without
revealing the rest; per-epoch published digests of issued proofs pin
timestamps; an auditor verifies all of it; and a deterministic simulator
exercises the full collusion matrix.
"""
