"""Output check: digests of every run's summary, compared with a record.

Each workload produces *items* — one per run, or one per Table 1
experiment (its ``shape_ok`` and the summaries of its runs).  An item's
digest covers ``RunSummary.as_dict()`` without the free-text ``label``,
so the same run submitted under another label (the service workload tags
labels per job) digests the same.  ``expected.json`` records the digests
of every workload for the default seed and one held-out seed; for other
seeds a run is checked for self-consistency only (every pass, and every
cache read, equal to the first pass).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.json")


@dataclass
class Item:
    """One checked output: a stable key, its digest and the runs it covers."""

    key: str
    digest: str
    runs: int = 1


def summary_payload(summary) -> dict:
    """``RunSummary`` (or its dict form) without the label."""
    data = summary if isinstance(summary, dict) else summary.as_dict()
    return {k: v for k, v in data.items() if k != "label"}


def digest(payload) -> str:
    """Short SHA-256 of a canonical JSON encoding."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_item(key: str, summary) -> Item:
    return Item(key, digest(summary_payload(summary)))


def load_expected(workload: str, seed: int, path: Path = EXPECTED) -> dict[str, str] | None:
    """Recorded ``{key: digest}`` for ``(workload, seed)``, or None."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return data.get(workload, {}).get(str(seed))


def mismatches(items: list[Item], reference: dict[str, str]) -> list[Item]:
    """Items whose digest differs from (or is missing in) ``reference``."""
    return [item for item in items if reference.get(item.key) != item.digest]
