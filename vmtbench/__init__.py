"""Benchmark for the VMT reproduction; run ``python3 vmtbench/run.py``."""
