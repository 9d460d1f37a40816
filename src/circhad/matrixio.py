"""Matrix document parsing/serialization and report emission.

The text matrix format is one row per line using '+' and '-', whitespace
ignored, '#' comment lines allowed, and optional "key: value" header lines
(order, group, listing) before the first row. JSON mirrors the same fields
with stable key order, and is read back through the same row and order checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .blocks import ConditionsReport, MatchReport
from .errors import FormatError
from .groupring import SignMatrix
from .hadamard import GramReport
from .searchengine import SearchResult
from .signs import from_text, to_text

_HEADER_KEYS = ("order", "group", "listing")
_JSON_FIELDS = {"format": str, "rows": list, "order": int, "group": str, "listing": list}


@dataclass
class MatrixDocument:
    order: int
    rows: list[str]
    group: str | None = None
    listing: tuple[int, ...] | None = None

    def to_sign_matrix(self) -> SignMatrix:
        return SignMatrix(from_text("".join(self.rows)).reshape(len(self.rows), -1))

    @classmethod
    def from_sign_matrix(cls, m: SignMatrix) -> "MatrixDocument":
        return cls(order=m.size, rows=to_text(m.entries))


def parse_matrix_document(text: str) -> MatrixDocument:
    """A matrix document in either form that `emit_matrix_document` writes."""
    if text.lstrip().startswith("{"):
        order, group, listing, lines = _json_fields(text)
    else:
        order, group, listing, lines = None, None, None, []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" in line and not lines:
                key, _, value = line.partition(":")
                key = key.strip().lower()
                value = value.strip()
                if key not in _HEADER_KEYS:
                    raise FormatError(f"unknown header field {key!r}", lineno)
                if key == "order":
                    try:
                        order = int(value)
                    except ValueError:
                        raise FormatError(f"order is not an integer: {value!r}", lineno) from None
                elif key == "group":
                    group = value
                else:
                    try:
                        listing = tuple(int(x) for x in value.replace(",", " ").split())
                    except ValueError:
                        raise FormatError(
                            f"listing is not a list of integers: {value!r}", lineno
                        ) from None
                continue
            lines.append((lineno, line))
    rows: list[str] = []
    for lineno, line in lines:
        compact = "".join(line.split())
        if compact.count("+") + compact.count("-") != len(compact):
            bad = set(compact) - {"+", "-"}
            raise FormatError(f"illegal matrix characters {sorted(bad)}", lineno)
        if rows and len(compact) != len(rows[0]):
            raise FormatError(
                f"ragged row: got {len(compact)} entries, previous rows have {len(rows[0])}", lineno
            )
        rows.append(compact)
    if not rows:
        raise FormatError("no matrix rows found")
    if len(rows) != len(rows[0]):
        raise FormatError(f"matrix is {len(rows)}x{len(rows[0])}, expected square")
    if order is not None and order != len(rows):
        raise FormatError(f"declared order {order} but found {len(rows)} rows")
    return MatrixDocument(order=len(rows), rows=rows, group=group, listing=listing)


def _json_fields(text: str):
    """(order, group, listing, [(None, row)]) of a JSON document; its rows have no line number."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not (isinstance(payload, dict) and payload.get("format") == "matrix"
            and all(type(value) is _JSON_FIELDS.get(key) for key, value in payload.items())
            and all(type(row) is str for row in payload.get("rows", []))
            and all(type(x) is int for x in payload.get("listing", []))):
        raise FormatError('expected a JSON object with "format": "matrix", string rows, '
                          "an integer order, a string group and a list of integers as listing")
    listing = tuple(payload["listing"]) if "listing" in payload else None
    rows = [(None, row) for row in payload.get("rows", [])]
    return payload.get("order"), payload.get("group"), listing, rows


def parse_sign_matrix(text: str) -> SignMatrix:
    return parse_matrix_document(text).to_sign_matrix()


def emit_matrix_document(doc: MatrixDocument, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {"format": "matrix", "order": doc.order, "rows": doc.rows}
        if doc.group is not None:
            payload["group"] = doc.group
        if doc.listing is not None:
            payload["listing"] = list(doc.listing)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = [f"order: {doc.order}"]
    if doc.group is not None:
        lines.append(f"group: {doc.group}")
    if doc.listing is not None:
        lines.append("listing: " + ",".join(str(x) for x in doc.listing))
    lines.extend(doc.rows)
    return "\n".join(lines) + "\n"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _gram_payload(report: GramReport) -> dict:
    return {
        "report": "gram",
        "order": report.size,
        "hadamard": report.is_hadamard,
        "diagonal_values": sorted(report.diagonal_values),
        "max_off_diagonal": report.max_off_diagonal,
        "row_sums": report.row_sums,
        "col_sums": report.col_sums,
        "negatives_per_row": report.negatives_per_row,
    }


def _gram_text(report: GramReport) -> list[str]:
    return [
        f"order: {report.size}",
        f"hadamard: {_bool(report.is_hadamard)}",
        f"diagonal values: {sorted(report.diagonal_values)}",
        f"max off-diagonal: {report.max_off_diagonal}",
        f"row sums: {report.row_sums}",
        f"col sums: {report.col_sums}",
        f"negatives per row: {report.negatives_per_row}",
    ]


def _conditions_payload(report: ConditionsReport) -> dict:
    return {
        "report": "conditions",
        "block_count": report.block_count,
        "even_count": report.even_count,
        "odd_count": report.odd_count,
        "balance_ok": report.balance_ok,
        "differences": {k: {str(d): c for d, c in v.items()} for k, v in report.differences.items()},
        "parity_ok": report.parity_ok,
        "symmetric_partner": report.symmetric_partner,
        "all_symmetric": report.all_symmetric,
    }


def _conditions_text(report: ConditionsReport) -> list[str]:
    lines = [
        f"even: {report.even_count}, odd: {report.odd_count}, balanced: {_bool(report.balance_ok)}"
    ]
    for kind in ("even", "odd"):
        diffs = report.differences.get(kind, {})
        shown = ", ".join(f"{d}x{c}" for d, c in diffs.items()) or "none"
        lines.append(f"{kind} differences (value x count): {shown}")
        lines.append(f"{kind} difference parity ok: {_bool(report.parity_ok.get(kind, True))}")
        lines.append(f"{kind} all symmetric: {_bool(report.all_symmetric.get(kind, True))}")
    partners = ", ".join(
        f"{i}->{p}" if p is not None else f"{i}->none"
        for i, p in enumerate(report.symmetric_partner)
    )
    lines.append(f"symmetric partners: {partners}")
    return lines


def _match_payload(report: MatchReport) -> dict:
    return {
        "report": "matching",
        "kind": report.kind,
        "perfect_matching_found": report.perfect_matching_found,
        "matching": [[list(p), list(q)] for p, q in report.matching],
        "failure_certificate": list(report.failure_certificate)
        if report.failure_certificate
        else None,
    }


def _match_text(report: MatchReport) -> list[str]:
    lines = [
        f"kind: {report.kind}",
        f"perfect matching: {_bool(report.perfect_matching_found)}",
    ]
    if report.perfect_matching_found:
        for p, q in report.matching:
            lines.append(f"  {p} ~ {q}")
    else:
        lines.append(f"unmatched pair: {report.failure_certificate}")
    return lines


def _search_payload(result: SearchResult) -> dict:
    payload = result.deterministic_payload()
    payload["report"] = "search"
    payload["timings"] = {k: round(v, 6) for k, v in result.timings.items()}
    payload["meta"] = dict(result.meta)
    return payload


def _search_text(result: SearchResult) -> list[str]:
    lines = [
        f"order: {result.order}",
        f"total rows: {result.total_rows}",
    ]
    for stage, count in result.stage_counts.items():
        lines.append(f"stage {stage}: {count}")
    lines.append(f"found: {result.found_raw_count}")
    if result.canonicalization == "rotation+negation":
        lines.append(f"classes under rotation+negation: {len(result.found)}")
    for row in result.found:
        lines.append(f"  {row}")
    lines.append(
        f"crosscheck: {result.crosscheck['checked']} rows, "
        f"{result.crosscheck['mismatches']} mismatches"
    )
    for phase, seconds in result.timings.items():
        lines.append(f"time {phase}: {seconds:.3f}s")
    lines.append(f"backend: {result.meta.get('backend')}")
    return lines


_DISPATCH = {
    GramReport: (_gram_payload, _gram_text),
    ConditionsReport: (_conditions_payload, _conditions_text),
    MatchReport: (_match_payload, _match_text),
    SearchResult: (_search_payload, _search_text),
}


def _emitters(report):
    try:
        return _DISPATCH[type(report)]
    except KeyError:
        raise TypeError(f"cannot emit report of type {type(report).__name__}") from None


def report_payload(report) -> dict:
    """JSON-ready dict for a report object."""
    return _emitters(report)[0](report)


def report_text(report) -> list[str]:
    """Human-readable lines for a report object."""
    return _emitters(report)[1](report)


def emit_report(report, fmt: str = "text") -> str:
    """Serialize any report type deterministically; JSON keys are sorted."""
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "json":
        return json.dumps(report_payload(report), sort_keys=True, indent=2) + "\n"
    return "\n".join(report_text(report)) + "\n"
