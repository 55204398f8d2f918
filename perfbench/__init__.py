"""Benchmark harness for frobseries; see README.md in this directory."""
