"""Correctness bookkeeping: failed checks count against completion."""

from __future__ import annotations

from typing import Callable, List


class CheckFailed(Exception):
    """An output did not match what the benchmark expects."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


class Tally:
    """Requests attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Descriptions of the checks the run applied.
        self.checks: List[str] = []

    def attempt(self, fn: Callable):
        """Run one request (or gate); a raise counts as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 -- counted and reported
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    @property
    def completed_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "checks": self.checks}
