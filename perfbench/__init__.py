"""End-to-end and per-layer benchmark of splsim; run it as ``python3 perfbench/run.py``."""
