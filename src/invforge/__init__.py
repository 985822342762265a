"""Exact computation of binary-form invariant rings and their syzygies."""

__version__ = "0.1.0"
