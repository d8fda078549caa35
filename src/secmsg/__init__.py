"""Encrypted point-to-point and collective messaging over TCP, with a
benchmark harness and latency-model fitting for the encrypted paths."""

__version__ = "0.1.0"
