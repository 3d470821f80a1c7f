"""Shared configuration of the benchmark harness.

Each benchmark file regenerates one artefact of the paper's evaluation
(a Table 1 row, an impossibility theorem or a figure-style sweep).
``python -m repro table1`` prints the paper-vs-measured comparison, and the
README's "Tests and benchmarks" section shows how to run the harness.

The simulations are deterministic, so every benchmark runs its experiment
exactly once (``rounds=1, iterations=1``) and asserts the qualitative
*shape* of the paper's claim; the benchmark timing is the cost of
regenerating the artefact.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark and return its result."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
