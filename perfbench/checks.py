"""Correctness checks run inside every benchmark invocation.

No fingerprint constant is pinned here: a check compares fingerprints the
same invocation produced (repeated runs, an in-process reference, a cold
twin), so a deliberate change to the numerics needs no benchmark edit.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping

__all__ = [
    "CheckFailed",
    "Checks",
    "digest",
]


class CheckFailed(AssertionError):
    """A benchmark output is wrong; the invocation must exit non-zero."""


def digest(fingerprint: str) -> str:
    """sha256 of a canonical table fingerprint (what ``repro serve`` reports)."""
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()


class Checks:
    """Runs checks, remembers which passed, raises on the first failure."""

    def __init__(self) -> None:
        self.passed: list[str] = []

    def _ok(self, name: str) -> None:
        self.passed.append(name)

    def trials_completed(self, label: str, statuses: Iterable[str], expected: int) -> None:
        statuses = list(statuses)
        bad = [s for s in statuses if s != "completed"]
        if len(statuses) != expected or bad:
            raise CheckFailed(
                f"{label}: {len(statuses)}/{expected} trials committed, "
                f"not completed: {bad}"
            )
        self._ok(f"{label}: all {expected} trials completed")

    def identical(self, label: str, fingerprints: Mapping[str, str]) -> None:
        """Every named fingerprint equals every other one."""
        distinct = {digest(fp)[:16] for fp in fingerprints.values()}
        if len(distinct) != 1:
            shown = {name: digest(fp)[:16] for name, fp in fingerprints.items()}
            raise CheckFailed(f"{label}: fingerprints differ: {shown}")
        self._ok(f"{label}: {len(fingerprints)} fingerprints identical")

    def refingerprints(self, label: str, rebuilt: str, reported_sha: str | None) -> None:
        """A table rebuilt from its payload digests to the reported sha."""
        if digest(rebuilt) != reported_sha:
            raise CheckFailed(
                f"{label}: table payload re-fingerprints to {digest(rebuilt)[:16]}, "
                f"the stream's end record says {str(reported_sha)[:16]}"
            )
        self._ok(f"{label}: table re-fingerprints to the end record")

    def equal(self, label: str, got: Any, expected: Any) -> None:
        if got != expected:
            raise CheckFailed(f"{label}: got {got!r}, expected {expected!r}")
        self._ok(f"{label}: {got!r}")
