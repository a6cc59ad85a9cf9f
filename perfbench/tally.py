"""Operations attempted and failed, with the first few reasons."""
from __future__ import annotations


class Tally:
    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(what)

    def run(self, what: str, check, *args) -> None:
        """One check as one operation: it returns None or the reason it
        failed; a check that raises has failed too."""
        try:
            reason = check(*args)
        except Exception as exc:  # noqa: BLE001 - a raising check is a failed one
            reason = f"{type(exc).__name__}: {exc}"
        self.add(reason is None, f"{what}: {reason}")

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.failures += other["failures"][: max(0, self.KEEP - len(self.failures))]

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}
