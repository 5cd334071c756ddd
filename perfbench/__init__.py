"""Benchmark of both paper chains; see README.md."""
