"""End-to-end benchmark of the reproduction: see ``perfbench/run.py``."""
