"""Matrix document parsing/serialization and report emission.

The text matrix format is one row per line using '+' and '-', whitespace
ignored, '#' comment lines allowed, and optional "key: value" header lines
(order, group, listing) before the first row. JSON mirrors the same fields
with stable key order, and is read back through the same row and order checks.

A document's matrix stays int8 from the file to the verdict. The rows of a
text document are read in whole-buffer passes: the inline spaces are deleted
and every line break becomes "\n" in one `bytes.translate`, and the signs are
picked out of that compact copy by one boolean mask and converted in place.
Only the lines before the first row (headers and comments) are read one at a
time. A row is written the same way, as character codes in the one buffer of
bytes that the document is written from.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .blocks import ConditionsReport, MatchReport
from .errors import FormatError
from .groupring import SignMatrix
from .hadamard import GramReport
from .searchengine import SearchResult
from .signs import from_codes, to_codes, to_text

_HEADER_KEYS = ("order", "group", "listing")
_JSON_FIELDS = {"format": str, "rows": list, "order": int, "group": str, "listing": list}

# The ASCII whitespace of str.split that does not end a line, and the bytes
# at which str.splitlines ends one ("\r\n" is one break, made "\n" first).
_SPACES = b" \t\x1f"
_BREAK = re.compile(rb"[\n\r\x0b\x0c\x1c-\x1e]")
_NEWLINES = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e", b"\n" * 6)
_JSON_START = re.compile(rb"[\s\x1c-\x1f]*\{")
_PLUS, _MINUS, _NEWLINE, _HASH = b"+-\n#"


@dataclass
class MatrixDocument:
    """A ±1 matrix and the header fields its document declares."""

    matrix: SignMatrix
    group: str | None = None
    listing: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return self.matrix.size


def parse_matrix_document(text: str | bytes) -> MatrixDocument:
    """A matrix document in either form that `emit_matrix_document` writes.

    Bytes are read as UTF-8. Only ASCII whitespace separates or breaks lines.
    """
    data = text.encode() if isinstance(text, str) else text
    if not data.isascii():
        data.decode()  # refuse what is not UTF-8, as reading the file as text would
    if _JSON_START.match(data):
        order, group, listing, rows = _json_fields(data)
        # every JSON row is a row, even a blank one, and has no line number
        body = "\n".join("".join(row.split()) for row in rows).encode()
        compact = np.frombuffer(body, dtype=np.uint8)
        lines, linenos = _line_spans(compact)[:, : len(rows)], None
    else:
        if b"\r" in data:  # one byte is found much faster than two
            data = data.replace(b"\r\n", b"\n")
        order, group, listing, first = _headers(data)
        compact = np.frombuffer(data.translate(_NEWLINES, _SPACES), dtype=np.uint8)
        lines = _line_spans(compact)[:, first:]
        linenos = np.arange(first + 1, first + 1 + lines.shape[1])
    entries = _sign_rows(compact, lines, linenos)
    if entries.shape[0] != entries.shape[1]:
        raise FormatError(f"matrix is {entries.shape[0]}x{entries.shape[1]}, expected square")
    if order is not None and order != entries.shape[0]:
        raise FormatError(f"declared order {order} but found {entries.shape[0]} rows")
    return MatrixDocument(SignMatrix(entries), group=group, listing=listing)


def _headers(data: bytes) -> tuple[int | None, str | None, tuple[int, ...] | None, int]:
    """(order, group, listing, index of the first row line) of a text document.

    Reads the lines before the first row one at a time: blank lines, comments
    and "key: value" headers. The first other line is the first row.
    """
    order, group, listing = None, None, None
    start, lineno = 0, 0
    while True:
        lineno += 1
        found = _BREAK.search(data, start)
        end = found.start() if found else len(data)
        line = data[start:end].decode().strip()
        if line and not line.startswith("#"):
            if ":" not in line:
                return order, group, listing, lineno - 1
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
        if found is None:
            raise FormatError("no matrix rows found")
        start = end + 1


def _line_spans(compact: np.ndarray) -> np.ndarray:
    """A (2, lines) array of where each newline-separated line of `compact` starts and ends."""
    breaks = np.flatnonzero(compact == _NEWLINE)
    return np.stack([np.concatenate(([0], breaks + 1)), np.append(breaks, compact.size)])


def _sign_rows(compact: np.ndarray, lines: np.ndarray, linenos: np.ndarray | None) -> np.ndarray:
    """The int8 rows held by `lines` of a compact document, checked in line order.

    `compact` holds no whitespace but the newlines between its lines. The
    lines of a text document carry their line numbers (`linenos`), and its
    empty lines and lines starting with '#' are not rows. Without line
    numbers (JSON), every line is a row. A row with a character other than
    '+' or '-', or with another length than the first row, is a FormatError
    at its line number.
    """
    starts, ends = lines
    rows = np.ones(starts.size, dtype=bool)
    if linenos is not None:
        rows &= starts < ends
        rows[rows] = compact[starts[rows]] != _HASH
    comments = (starts < ends) & ~rows
    if not rows.any():
        raise FormatError("no matrix rows found")
    offset = int(starts[0])
    body = compact[offset:]
    signs = body == _PLUS
    signs |= body == _MINUS
    for start, end in lines[:, comments].T - offset:
        signs[start:end] = False
    starts, ends = lines[:, rows]
    linenos = [None] * starts.size if linenos is None else linenos[rows].tolist()
    lengths = ends - starts
    ragged = np.flatnonzero(lengths != lengths[0])
    first_ragged = int(ragged[0]) if ragged.size else starts.size
    if np.count_nonzero(signs) != lengths.sum():
        # some row holds another character: report it unless a ragged row comes first
        for k in range(min(first_ragged + 1, starts.size)):
            if np.count_nonzero(signs[starts[k] - offset : ends[k] - offset]) != lengths[k]:
                bad = set(compact[starts[k] : ends[k]].tobytes().decode()) - {"+", "-"}
                raise FormatError(f"illegal matrix characters {sorted(bad)}", linenos[k])
    if ragged.size:
        raise FormatError(
            f"ragged row: got {lengths[first_ragged]} entries, previous rows have {lengths[0]}",
            linenos[first_ragged],
        )
    return from_codes(body[signs]).reshape(starts.size, int(lengths[0]))


def _json_fields(data: bytes):
    """(order, group, listing, rows) of a JSON document."""
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not (isinstance(payload, dict) and payload.get("format") == "matrix"
            and all(type(value) is _JSON_FIELDS.get(key) for key, value in payload.items())
            and all(type(row) is str for row in payload.get("rows", []))
            and all(type(x) is int for x in payload.get("listing", []))):
        raise FormatError('expected a JSON object with "format": "matrix", string rows, '
                          "an integer order, a string group and a list of integers as listing")
    listing = tuple(payload["listing"]) if "listing" in payload else None
    return payload.get("order"), payload.get("group"), listing, payload.get("rows", [])


def parse_sign_matrix(text: str | bytes) -> SignMatrix:
    return parse_matrix_document(text).matrix


def emit_matrix_document(doc: MatrixDocument, fmt: str = "text") -> bytearray:
    """The UTF-8 bytes of `doc` in either form, which `parse_matrix_document` reads back.

    A text document's header, rows and newlines are written as character
    codes into the one bytearray returned, so it is never copied to a `str`
    unless the caller decodes it.
    """
    if fmt == "json":
        payload = {"format": "matrix", "order": doc.order, "rows": to_text(doc.matrix.entries)}
        if doc.group is not None:
            payload["group"] = doc.group
        if doc.listing is not None:
            payload["listing"] = list(doc.listing)
        return bytearray(json.dumps(payload, sort_keys=True, indent=2) + "\n", "utf-8")
    head = [f"order: {doc.order}"]
    if doc.group is not None:
        head.append(f"group: {doc.group}")
    if doc.listing is not None:
        head.append("listing: " + ",".join(str(x) for x in doc.listing))
    header = "".join(line + "\n" for line in head).encode()
    n = doc.order
    data = bytearray(len(header) + n * (n + 1))
    data[: len(header)] = header
    rows = np.frombuffer(data, dtype=np.uint8)[len(header) :].reshape(n, n + 1)
    to_codes(doc.matrix.entries, rows[:, :n])
    rows[:, n] = _NEWLINE
    return data


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
