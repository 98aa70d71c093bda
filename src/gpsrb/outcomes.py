"""Verdict record shared by every checker in this package.

Brute-force checks over infinite carriers can only ever certify a finite
window, so a plain bool would overclaim. The three verdicts are:

- "pass": conclusive, the property holds everywhere (only claimable when the
  whole carrier was examined, i.e. finite monoids);
- "pass-on-window": no violation among the examined elements, silent beyond;
  CheckOutcome.clean is the one constructor of the two passes;
- "fail": conclusive, with its witness: CheckOutcome("fail", witness, window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

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

    @staticmethod
    def clean(monoid, elems: Iterable, window: str) -> "CheckOutcome":
        """No violation among elems: "pass" if they cover the carrier of monoid, else "pass-on-window"."""
        return CheckOutcome("pass" if monoid.covers(elems) else "pass-on-window", window=window)

    def __bool__(self) -> bool:
        return self.verdict != "fail"

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.window is not None:
            out["window"] = self.window
        return out

