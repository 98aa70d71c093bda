"""Verdict record shared by every checker in this package.

Brute-force checks over infinite carriers can only ever certify a finite
window, so a plain bool would overclaim. The three verdicts are:

- "pass": conclusive, the property holds everywhere (only claimable when the
  whole carrier was examined, i.e. finite monoids);
- "pass-on-window": no violation among the examined elements, silent beyond;
- "fail": conclusive, a concrete witness is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

VERDICTS = ("pass", "pass-on-window", "fail")


@dataclass(frozen=True)
class CheckOutcome:
    verdict: str
    witness: Optional[dict] = None  # present iff verdict == "fail"
    window: Optional[str] = None  # human-readable description of what was examined

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == "fail") != (self.witness is not None):
            raise ValueError("witness is attached exactly when verdict is 'fail'")

    def __bool__(self) -> bool:
        return self.verdict != "fail"

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.window is not None:
            out["window"] = self.window
        return out


def outcome_pass(window: str | None = None) -> CheckOutcome:
    return CheckOutcome("pass", window=window)


def outcome_on_window(window: str) -> CheckOutcome:
    return CheckOutcome("pass-on-window", window=window)


def outcome_fail(witness: dict, window: str | None = None) -> CheckOutcome:
    return CheckOutcome("fail", witness=witness, window=window)
