"""Benchmark suite: one module per paper table/figure (see docs/experiments.md)."""
