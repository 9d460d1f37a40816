import hashlib
import json
import re

import numpy as np
import pytest

from circhad import (
    FormatError,
    MatrixDocument,
    SearchConfig,
    SignMatrix,
    block_system,
    conditions_report,
    emit_matrix_document,
    emit_report,
    is_hadamard,
    matching_report,
    parse_matrix_document,
    parse_sign_matrix,
    search,
)
from circhad import groups
from circhad.cli import main
from circhad.constructions import FAMILIES, kronecker_extend, with_recovered_listing
from sign_reference import rows_reference, signs_reference

EQ1_TEXT = "+++-\n-+++\n+-++\n++-+\n"


def test_parse_simple_matrix():
    m = parse_sign_matrix("++\n+-")
    assert m.entries.tolist() == [[1, 1], [1, -1]]


def test_parse_eq1_passes_hadamard():
    assert is_hadamard(parse_sign_matrix(EQ1_TEXT)).is_hadamard


def test_parse_ragged_row_reports_line():
    with pytest.raises(FormatError) as err:
        parse_sign_matrix("++\n+")
    assert err.value.line == 2


def test_parse_illegal_character_reports_line():
    with pytest.raises(FormatError) as err:
        parse_sign_matrix("++\n+x")
    assert err.value.line == 2


def test_parse_handles_comments_headers_and_spacing():
    doc = parse_matrix_document(
        "# a comment\norder: 4\ngroup: C4\nlisting: 0, 2, 1, 3\n\n++ +-\n++ -+\n-+ ++\n+- ++\n"
    )
    assert doc.order == 4
    assert doc.group == "C4"
    assert doc.listing == (0, 2, 1, 3)
    assert doc.matrix.entries[0].tolist() == [1, 1, 1, -1]


def test_parse_rejects_order_mismatch():
    with pytest.raises(FormatError):
        parse_matrix_document("order: 3\n++\n--\n")


def test_parse_rejects_non_square():
    with pytest.raises(FormatError):
        parse_sign_matrix("++\n--\n+-\n")


def test_parse_rejects_unknown_header():
    with pytest.raises(FormatError):
        parse_matrix_document("shape: round\n++\n--\n")


def test_parse_rejects_empty_input():
    with pytest.raises(FormatError):
        parse_sign_matrix("# nothing here\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_document_roundtrip_random(fmt):
    rng = np.random.default_rng(61)
    for _ in range(25):
        size = int(rng.integers(1, 9))
        entries = rng.choice([1, -1], (size, size))
        doc = MatrixDocument(SignMatrix(entries))
        emitted = emit_matrix_document(doc, fmt)
        if fmt == "json":
            assert json.loads(emitted)["rows"] == rows_reference(entries)
        assert np.array_equal(parse_matrix_document(emitted).matrix.entries, entries)


def test_text_conversions_match_per_character_reference():
    rng = np.random.default_rng(67)
    matrices = [rng.choice([1, -1], (n, n)) for n in (1, 2, 3, 7, 64, 300)]
    for family in FAMILIES.values():
        matrices.append(family().matrix.entries)
        extended = kronecker_extend(with_recovered_listing(family()), FAMILIES["c2c2"]())
        matrices.append(extended.matrix.entries)
    for entries in matrices:
        data = emit_matrix_document(MatrixDocument(SignMatrix(entries)))
        rows = data.decode("ascii").splitlines()[1:]
        assert rows == rows_reference(entries)
        parsed = parse_matrix_document(data).matrix.entries
        assert parsed.dtype == np.int8
        assert np.array_equal(parsed, signs_reference(rows))
        assert np.array_equal(parsed, entries)


def test_construct_1024_writes_the_same_bytes(tmp_path):
    path = tmp_path / "m1024.txt"
    assert main(["construct", "--family", "c4", "--extend", "c4", "--times", "4",
                 "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "ca79a628db39380fc4fdad77a8def0fb5266ea0ffcf1af3d896aa55ea1acdb2c"


def test_construct_1024_builds_no_group_table(tmp_path, monkeypatch, capsys):
    def no_table(g, h):
        raise AssertionError(f"built the table of {g.name}x{h.name}")

    monkeypatch.setattr(groups, "_product_tables", no_table)
    path = tmp_path / "m1024.txt"
    argv = ["construct", "--family", "c4", "--extend", "c4", "--times", "4"]
    assert main(argv + ["--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "ca79a628db39380fc4fdad77a8def0fb5266ea0ffcf1af3d896aa55ea1acdb2c"
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


def test_document_header_roundtrip():
    doc = MatrixDocument(SignMatrix([[1, -1], [-1, 1]]), group="C2", listing=(0, 1))
    parsed = parse_matrix_document(emit_matrix_document(doc))
    assert parsed == doc
    assert parsed.order == 2
    # equality compares the entries exactly, not ambiguously as arrays
    assert parsed != MatrixDocument(SignMatrix([[1, 1], [1, -1]]), group="C2", listing=(0, 1))
    assert parsed != MatrixDocument(SignMatrix([[1, -1], [-1, 1]]), group="C2")


def test_gram_report_text_contains_expected_lines():
    text = emit_report(is_hadamard(parse_sign_matrix(EQ1_TEXT)))
    assert "hadamard: true" in text
    assert "order: 4" in text


def test_conditions_report_text_line():
    report = conditions_report(block_system([1, 1, 1, -1]))
    assert "even: 1, odd: 1, balanced: true" in emit_report(report)


def test_search_report_text_contains_found():
    text = emit_report(search(SearchConfig(order=8)))
    assert "found: 0" in text
    assert "stage row_sum: 0" in text


def test_match_report_serialization():
    report = matching_report(block_system([1, 1, 1, -1]), "odd")
    assert "perfect matching: true" in emit_report(report)
    payload = json.loads(emit_report(report, "json"))
    assert payload["perfect_matching_found"] is True


def test_json_reports_are_stable_and_sorted():
    report = is_hadamard(parse_sign_matrix(EQ1_TEXT))
    first = emit_report(report, "json")
    second = emit_report(report, "json")
    assert first == second
    payload = json.loads(first)
    assert list(payload) == sorted(payload)


def test_search_json_report_fields():
    payload = json.loads(emit_report(search(SearchConfig(order=4)), "json"))
    assert payload["stage_counts"]["paf"] == 8
    assert payload["found"] == ["+++-"]
    assert payload["meta"]["backend"] in ("python", "numpy")


def test_emit_rejects_unknown_format_and_type():
    report = is_hadamard(parse_sign_matrix(EQ1_TEXT))
    with pytest.raises(ValueError):
        emit_report(report, "yaml")
    with pytest.raises(TypeError):
        emit_report(42)


def reference_parse_matrix_document(text: str):
    """(rows, order, group, listing) of a document, read one line at a time.

    The parser that the whole-buffer one replaced, kept as its oracle: every
    line is stripped, headers come before the first row, and each row is
    compacted with "".join(line.split()) before its characters are checked.
    """
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        order, group = payload.get("order"), payload.get("group")
        listing = tuple(payload["listing"]) if "listing" in payload else None
        lines = [(None, row) for row in payload.get("rows", [])]
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
                if key not in ("order", "group", "listing"):
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
    return rows, len(rows), group, listing


COMMENTS = ["# a comment", "#", "  # indented: with a colon", "# café ünïcödé ✓ 数学 🙂",
            "#+-+-", "\t#\ttabbed"]
ILLEGAL = ["x", "0", "é", "*", ":", "#", "数", "🙂", "\x00", "\x1b", "+-x", "/", ")", ","]


def corpus_document(rng) -> str:
    """A random text or JSON matrix document, well formed or with one or two faults."""
    n = int(rng.choice([1, 2, 3, 4, 5, 8, 13, 33]))
    rows = ["".join(rng.choice(["+", "-"], n)) for _ in range(n)]
    fault = rng.choice(["none"] * 6 + ["ragged", "illegal", "extra-row", "missing-row", "order",
                                       "header", "bad-order", "bad-listing", "no-rows",
                                       "late-header", "blank-row"])
    fields = {"order": n, "group": f"C{n}", "listing": list(range(n))}
    if fault == "order":
        fields["order"] = n + int(rng.choice([-1, 1, 7]))
    row_faults = [fault]
    if fault in ("ragged", "illegal") and rng.random() < 0.3:
        # a second faulty row, before or after the first: the earlier one is reported
        row_faults.append(rng.choice(["ragged", "illegal"]))
    for row_fault in row_faults:
        k = int(rng.integers(0, n))
        if row_fault == "ragged":
            rows[k] = rows[k][:-1] if rng.random() < 0.5 and n > 1 else rows[k] + "+"
        elif row_fault == "illegal":
            at = int(rng.integers(0, n + 1))
            rows[k] = rows[k][:at] + str(rng.choice(ILLEGAL)) + rows[k][at:]
        elif row_fault == "extra-row":
            rows.append("".join(rng.choice(["+", "-"], n)))
        elif row_fault == "missing-row" and n > 1:
            del rows[k]
        elif row_fault == "blank-row":
            rows.insert(k, "")
    if fault == "no-rows":
        rows = []
    if rng.random() < 0.3:
        payload = {"format": "matrix", "rows": [spaced(rng, row) for row in rows]}
        for key in rng.permutation(list(fields))[: int(rng.integers(0, 4))]:
            payload[str(key)] = fields[str(key)]
        return json.dumps(payload, indent=int(rng.choice([0, 2])) or None)
    lines = []
    for key in rng.permutation(list(fields))[: int(rng.integers(0, 4))]:
        value = fields[str(key)]
        if key == "listing":
            value = str(rng.choice([", ", ",", " "])).join(map(str, value))
        lines.append(f"{str(key).upper() if rng.random() < 0.2 else key}:{rng.choice(['', ' ', '  '])}{value}")
    if fault == "header":
        lines.insert(int(rng.integers(0, len(lines) + 1)), "shape: round")
    elif fault == "bad-order":
        lines.append("order: four")
    elif fault == "bad-listing":
        lines.append("listing: 0, 1, x")
    for row in rows:
        lines.append(spaced(rng, row))
    if fault == "late-header" and rows:
        lines.insert(len(lines) - int(rng.integers(0, len(rows))), "order: 4")
    for _ in range(int(rng.integers(0, 4))):
        lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(COMMENTS + ["", "  ", "\t"])))
    breaks = ["\n"] * 8 + ["\r\n"] * 4 + ["\r", "\x0b", "\x0c", "\x1c", "\x1e"]
    text = "".join(line + str(rng.choice(breaks)) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


def spaced(rng, row: str) -> str:
    """The row with spaces and tabs put between, before and after some entries."""
    if rng.random() < 0.6:
        return row
    gaps = rng.choice(["", "", " ", "\t", "  ", " \t", "\x1f"], len(row) + 1)
    return "".join(gap + ch for gap, ch in zip(gaps, row)) + str(gaps[-1])


def parsed_or_error(parse, text):
    try:
        result = parse(text)
    except FormatError as exc:
        return "error", str(exc), exc.line
    if isinstance(result, MatrixDocument):
        return rows_reference(result.matrix.entries), result.order, result.group, result.listing
    return result


def test_parser_matches_the_per_line_reference_on_a_seeded_corpus():
    rng = np.random.default_rng(2703)
    outcomes = set()
    for _ in range(3000):
        text = corpus_document(rng)
        expected = parsed_or_error(reference_parse_matrix_document, text)
        assert parsed_or_error(parse_matrix_document, text) == expected, repr(text)
        assert parsed_or_error(parse_matrix_document, text.encode()) == expected, repr(text)
        json_form = text.lstrip().startswith("{")
        message = expected[1] if expected[0] == "error" else "parsed"
        outcomes.add((json_form, re.sub(r"^line \d+: ", "", message).split()[0]))
    every = {"parsed", "illegal", "ragged", "matrix", "declared", "no"}
    assert outcomes >= {(json_form, kind) for kind in every for json_form in (False, True)}
    assert outcomes >= {(False, "unknown"), (False, "order"), (False, "listing")}
