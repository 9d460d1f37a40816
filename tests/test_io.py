import hashlib
import json

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
    assert doc.rows[0] == "+++-"


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
        doc = MatrixDocument.from_sign_matrix(SignMatrix(entries))
        emitted = emit_matrix_document(doc, fmt)
        if fmt == "json":
            payload = json.loads(emitted)
            parsed = MatrixDocument(order=payload["order"], rows=payload["rows"])
        else:
            parsed = parse_matrix_document(emitted)
        assert np.array_equal(parsed.to_sign_matrix().entries, entries)


def test_text_conversions_match_per_character_reference():
    rng = np.random.default_rng(67)
    matrices = [rng.choice([1, -1], (n, n)) for n in (1, 2, 3, 7, 64, 300)]
    for family in FAMILIES.values():
        matrices.append(family().matrix.entries)
        extended = kronecker_extend(with_recovered_listing(family()), FAMILIES["c2c2"]())
        matrices.append(extended.matrix.entries)
    for entries in matrices:
        doc = MatrixDocument.from_sign_matrix(SignMatrix(entries))
        assert doc.rows == rows_reference(entries)
        parsed = doc.to_sign_matrix().entries
        assert np.array_equal(parsed, signs_reference(doc.rows))
        assert np.array_equal(parsed, entries)


def test_construct_1024_writes_the_same_bytes(tmp_path):
    path = tmp_path / "m1024.txt"
    assert main(["construct", "--family", "c4", "--extend", "c4", "--times", "4",
                 "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "ca79a628db39380fc4fdad77a8def0fb5266ea0ffcf1af3d896aa55ea1acdb2c"


def test_document_header_roundtrip():
    doc = MatrixDocument(order=2, rows=["+-", "-+"], group="C2", listing=(0, 1))
    parsed = parse_matrix_document(emit_matrix_document(doc))
    assert parsed == doc


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
