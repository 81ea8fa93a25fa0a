"""Benchmark harness for bipergm; run it with ``python3 perfbench/run.py``."""
