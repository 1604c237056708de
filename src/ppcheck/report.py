"""Deterministic report assembly and serialization.

Rational values serialize as "p/q" strings so exact-mode reports never
contain floating-point literals; floats use the shortest round-trip
decimal that json produces natively, and a NaN or infinity is the string
"nan", "inf" or "-inf", so a report is always strict JSON.  Integers are
written exactly at any size: past Python's default int-to-str limit of
4300 digits an integer is a string of its digits, and the digits come
from `decimal`, which has no such limit.
"""
from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction

from .checks import CheckResult

ENGINE_VERSION = "0.1.0"
_INT_STR_LIMIT = 10 ** 4300     # json.dumps writes ints below it as numbers


class Report:
    def __init__(self, header: dict, rows: list, summary: dict | None = None,
                 verdict: str | None = None):
        self.header, self.rows = header, rows       # rows: of CheckResult
        self.summary = {} if summary is None else summary
        self.verdict = verdict


def encode_value(value):
    """JSON-friendly encoding: Fractions as "p/q", containers recursively."""
    if isinstance(value, Fraction):
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int) and abs(value) >= _INT_STR_LIMIT:
        return str(Decimal(value))
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)                   # "nan", "inf", "-inf"
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return str(value)


def build_report(header: dict, indexed_results) -> Report:
    """Order rows by (point index, check name) and tabulate a summary.

    `indexed_results` is an iterable of (point_index, CheckResult).
    """
    ordered = sorted(indexed_results, key=lambda ir: (ir[0], ir[1].name))
    rows = [r for _, r in ordered]
    summary: dict = {}
    for r in rows:
        bucket = summary.setdefault(
            r.name, {"pass": 0, "fail": 0, "vacuous": 0, "error": 0})
        bucket[r.status] += 1
    return Report(header=header, rows=rows, summary=summary)


def report_to_dict(report: Report) -> dict:
    rows = []
    for r in report.rows:
        row = {
            "point": encode_value(list(r.point)),
            "check": r.name,
            "status": r.status,
            "residual": encode_value(r.residual),
            "witnesses": encode_value(r.witnesses),
        }
        if r.residuals:
            row["residuals"] = encode_value(r.residuals)
        if r.notes:
            row["notes"] = r.notes
        rows.append(row)
    doc = {
        "header": encode_value(report.header),
        "rows": rows,
        "summary": report.summary,
    }
    if report.verdict is not None:
        doc["verdict"] = report.verdict
    return doc


def report_to_json(report: Report) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=False) + "\n"


def report_to_text(report: Report) -> str:
    lines = []
    head = report.header
    lines.append(f"engine {head.get('version', '?')}  mode={head.get('mode')}  "
                 f"jet_order={head.get('jet_order')}  seed={head.get('seed')}")
    if report.verdict is not None:
        lines.append(f"verdict: {report.verdict}")
    cols = ("check", "status", "residual", "point")
    table = []
    for r in report.rows:
        table.append((r.name, r.status, str(encode_value(r.residual)),
                      str(encode_value(list(r.point)))))
    widths = [max(len(c), *(len(row[i]) for row in table)) if table else len(c)
              for i, c in enumerate(cols)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*cols))
    lines.append(fmt.format(*("-" * w for w in widths)))
    for row in table:
        lines.append(fmt.format(*row))
    lines.append("")
    for name in sorted(report.summary):
        counts = report.summary[name]
        lines.append(f"{name}: " + ", ".join(
            f"{k}={counts[k]}" for k in ("pass", "fail", "vacuous", "error")))
    return "\n".join(lines) + "\n"


def emit_report(report: Report, path: str | None, fmt: str = "json") -> str:
    """Serialize and (optionally) write; returns the rendered text."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "text":
        text = report_to_text(report)
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return text


def all_clear(report: Report) -> bool:
    """True when every non-vacuous row passed (the CI exit criterion)."""
    return all(r.status in ("pass", "vacuous") for r in report.rows)
