"""Three-valued verdicts with machine-checkable certificates, and BoundExceeded."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Verdict", "BoundExceeded"]


class BoundExceeded(RuntimeError):
    """A termination bound was hit (chart engine, strands); the message names it."""


@dataclass(frozen=True)
class Verdict:
    """Yes / No / Unknown plus a certificate payload.

    Yes and No carry data that an independent checker can re-verify (a
    factorization, an obstruction inequality with its numbers, a solved or
    exhausted word equation); Unknown carries the reason for the gap.
    """

    value: str
    certificate: dict[str, Any] | None = None
    reason: str = ""

    def __post_init__(self):
        if self.value not in ("yes", "no", "unknown"):
            raise ValueError(f"bad verdict value {self.value!r}")

    @classmethod
    def yes(cls, certificate: dict[str, Any]) -> "Verdict":
        return cls("yes", certificate)

    @classmethod
    def no(cls, certificate: dict[str, Any]) -> "Verdict":
        return cls("no", certificate)

    @classmethod
    def unknown(cls, reason: str) -> "Verdict":
        return cls("unknown", None, reason)

    def __bool__(self) -> bool:
        raise TypeError("Verdict is three-valued; compare .value explicitly")

    def as_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"value": self.value}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.reason:
            out["reason"] = self.reason
        return out
