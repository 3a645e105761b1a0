"""Probe reports and the artifact files they and the experiments are written to.

A ProbeReport is the uniform pass/fail + provenance record for all checks.
Every artifact goes through `atomic_write`, and every CSV artifact through
`write_csv`, so the file mode, the atomic replace and the CSV dialect are
decided here once.
"""

from __future__ import annotations

import csv
import io
import os
import secrets
from dataclasses import dataclass, field

REPORT_HEADER = ("probe", "statistic", "threshold", "pass")


@dataclass(frozen=True)
class ProbeReport:
    name: str
    samples: int
    statistic: float
    threshold: float | None
    direction: str = "leq"  # statistic {leq|lt|geq|ge} threshold
    provenance: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        # pure function of (statistic, threshold, direction); report-only probes
        # (threshold None) always pass
        if self.threshold is None:
            return True
        if self.direction == "leq":
            return self.statistic <= self.threshold
        if self.direction == "lt":
            return self.statistic < self.threshold
        if self.direction == "geq":
            return self.statistic >= self.threshold
        raise ValueError(f"unknown direction {self.direction!r}")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "direction": self.direction,
            "passed": self.passed,
            "provenance": self.provenance,
            "details": self.details,
        }


def report_row(r: ProbeReport) -> list:
    """The REPORT_HEADER fields of one report, as text."""
    return [r.name, repr(r.statistic), "" if r.threshold is None else repr(r.threshold),
            "true" if r.passed else "false"]


def atomic_write(path, data: str) -> None:
    """Replace `path` by a file holding `data`, in one rename.

    The file is created with mode 0o666 so that the process umask applies, as
    for any file a plain `open` creates.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    atomic_write(path, buf.getvalue())
