import contextlib
import hashlib
import io

import numpy as np
import pytest

from circhad import (
    Block2,
    assemble_block_matrix,
    block_system,
    circulant_from_row,
    conditions_report,
    matching_report,
    pair_info,
    paf,
    paf_is_flat,
    paired_listing,
    quadruple_remainders,
    rg_matrix,
    row_from_blocks,
    twist,
)
from circhad.blocks import BlockSystem
from circhad.cli import main
from sign_reference import mask_to_signs

ALL_BLOCKS = [Block2(1, 1), Block2(-1, -1), Block2(1, -1), Block2(-1, 1)]

BLOCKED = np.array([[1, 1, 1, -1], [1, 1, -1, 1], [-1, 1, 1, 1], [1, -1, 1, 1]])


def test_block_kinds_and_signs():
    assert (Block2(1, 1).kind, Block2(1, 1).sign) == ("even", 1)
    assert (Block2(-1, -1).kind, Block2(-1, -1).sign) == ("even", -1)
    assert (Block2(1, -1).kind, Block2(1, -1).sign) == ("odd", 1)
    assert (Block2(-1, 1).kind, Block2(-1, 1).sign) == ("odd", -1)


def test_block_entry_shape():
    b = Block2(1, -1)
    assert b.entries.tolist() == [[1, -1], [-1, 1]]


def test_block_system_of_eq1_row():
    system = block_system([1, 1, 1, -1])
    assert [(b.kind, b.sign) for b in system.blocks] == [("even", 1), ("odd", 1)]
    assert system.n == 1


def test_block_system_all_plus():
    system = block_system([1] * 8)
    assert all(b.kind == "even" for b in system.blocks)
    assert len(system.kind_positions("odd")) == 0
    assert len(system.kind_positions("even")) == 4


def test_block_system_paired_layout_of_16x16_display_row():
    row = [1, 1, 1, -1, 1, 1, 1, -1, 1, 1, 1, -1, -1, -1, -1, 1]
    system = block_system(row, layout="paired")
    assert [(b.kind, b.sign) for b in system.blocks] == [
        ("even", 1), ("odd", 1), ("even", 1), ("odd", 1),
        ("even", 1), ("odd", 1), ("even", -1), ("odd", -1),
    ]


def test_block_system_layouts_agree():
    rng = np.random.default_rng(31)
    for _ in range(20):
        natural = rng.choice([1, -1], 16)
        half = 8
        paired = np.empty(16, dtype=np.int64)
        paired[0::2] = natural[:half]
        paired[1::2] = natural[half:]
        a = block_system(natural)
        b = block_system(paired, layout="paired")
        assert a.blocks == b.blocks
        assert a.source_row == b.source_row


def test_block_system_rejects_bad_input():
    with pytest.raises(ValueError):
        block_system([1, 1, -1])
    with pytest.raises(ValueError):
        block_system([1, 1, 1, 2])
    with pytest.raises(ValueError):
        block_system([1, 1, 1, -1], layout="diagonal")


def test_twist_rules():
    assert twist(Block2(1, -1)) == Block2(-1, 1)
    assert twist(Block2(1, 1)) == Block2(1, 1)
    for b in ALL_BLOCKS:
        assert twist(twist(b)) == b
        assert twist(b).kind == b.kind
        if b.kind == "odd":
            assert np.array_equal(twist(b).entries, -b.entries)
            assert twist(b).sign == -b.sign
        else:
            assert np.array_equal(twist(b).entries, b.entries)
            assert twist(b).sign == b.sign


def test_block_product_law():
    # same-kind products are rank-one +-2 patterns, mixed kinds annihilate
    for a in ALL_BLOCKS:
        for b in ALL_BLOCKS:
            product = a.entries @ b.entries
            if a.kind != b.kind:
                assert np.all(product == 0)
            elif a.kind == "even":
                assert product.tolist() in ([[2, 2], [2, 2]], [[-2, -2], [-2, -2]])
            else:
                assert product.tolist() in ([[2, -2], [-2, 2]], [[-2, 2], [2, -2]])


def test_assemble_of_eq1_row_is_blocked_display():
    assert np.array_equal(assemble_block_matrix(block_system([1, 1, 1, -1])).entries, BLOCKED)


def test_assemble_all_plus_is_all_ones():
    out = assemble_block_matrix(block_system([1] * 8))
    assert np.array_equal(out.entries, np.ones((8, 8), dtype=np.int64))


# m = 12 is the first exhaustive case with n odd
@pytest.mark.parametrize("m", [4, 8, 12])
def test_reconstruction_identity_exhaustive(m):
    for mask in range(1 << m):
        row = mask_to_signs(mask, m)
        lhs = assemble_block_matrix(block_system(row)).entries
        rhs = rg_matrix(circulant_from_row(row), paired_listing(m))
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_row_from_blocks_inverts_block_system(m):
    for mask in range(1 << m):
        system = block_system(mask_to_signs(mask, m))
        kinds = [b.kind for b in system.blocks]
        signs = [b.sign for b in system.blocks]
        assert tuple(row_from_blocks(kinds, signs).tolist()) == system.source_row


def test_row_from_blocks_rejects_bad_blocks():
    with pytest.raises(ValueError, match="even number"):
        row_from_blocks(["even", "odd", "odd"], [1, 1, 1])
    with pytest.raises(ValueError, match="even number"):
        row_from_blocks(["even", "odd"], [1])
    with pytest.raises(ValueError, match="unknown block kind 'diagonal'"):
        row_from_blocks(["even", "odd", "diagonal", "even"], [1, 1, 1, 1])


def test_reconstruction_identity_random_m16():
    rng = np.random.default_rng(37)
    for _ in range(30):
        row = rng.choice([1, -1], 16)
        lhs = assemble_block_matrix(block_system(row)).entries
        rhs = rg_matrix(circulant_from_row(row), paired_listing(16))
        assert np.array_equal(lhs, rhs)


def test_pair_info_differences():
    # odd blocks at positions 1 and 3 in a 2n=8 system
    kinds = ["even", "odd", "even", "odd", "even", "even", "even", "even"]
    system = block_system(row_from_blocks(kinds, [1] * 8))
    assert pair_info(system, 1, 3).difference == 2
    assert pair_info(system, 3, 1).difference == 6
    assert pair_info(system, 1, 3).conjugate_difference == 6


def test_pair_info_difference_conjugate_sum():
    rng = np.random.default_rng(41)
    for _ in range(20):
        row = rng.choice([1, -1], 16)
        system = block_system(row)
        for kind in ("even", "odd"):
            positions = system.kind_positions(kind)
            for i in positions:
                for j in positions:
                    if i != j:
                        info = pair_info(system, i, j)
                        assert info.difference + info.conjugate_difference == 8
                        assert 1 <= info.difference <= 7


def test_pair_info_sign_symmetry():
    rng = np.random.default_rng(43)
    for _ in range(20):
        row = rng.choice([1, -1], 16)
        system = block_system(row)
        for kind, expected in (("even", 1), ("odd", -1)):
            positions = system.kind_positions(kind)
            for i in positions:
                for j in positions:
                    if i < j:
                        s_ij = pair_info(system, i, j).sign
                        s_ji = pair_info(system, j, i).sign
                        assert s_ji == expected * s_ij


def test_pair_info_rejects_block_indices_out_of_range():
    # odd blocks at 1 and 7 of a 2n = 8 system: -1 would wrap onto block 7 with the wrong sign
    kinds = ["even", "odd", "even", "even", "even", "even", "even", "odd"]
    system = block_system(row_from_blocks(kinds, [1] * 8))
    assert pair_info(system, 7, 1).sign == -1
    for i, j in ((-1, 1), (1, -1), (8, 1), (1, 8)):
        with pytest.raises(ValueError, match="block indices"):
            pair_info(system, i, j)


def test_pair_info_rejects_mixed_kinds():
    system = block_system([1, 1, 1, -1])
    with pytest.raises(ValueError):
        pair_info(system, 0, 1)
    with pytest.raises(ValueError):
        pair_info(system, 0, 0)


def test_conditions_report_eq1():
    report = conditions_report(block_system([1, 1, 1, -1]))
    assert report.even_count == 1
    assert report.odd_count == 1
    assert report.balance_ok


def test_conditions_report_all_plus_unbalanced():
    report = conditions_report(block_system([1] * 8))
    assert (report.even_count, report.odd_count) == (4, 0)
    assert not report.balance_ok


def test_balance_iff_first_two_paired_rows_orthogonal_exhaustive_m8():
    for mask in range(1 << 8):
        row = mask_to_signs(mask, 8)
        matrix = rg_matrix(circulant_from_row(row), paired_listing(8))
        orthogonal = int(np.dot(matrix[0], matrix[1])) == 0
        assert conditions_report(block_system(row)).balance_ok == orthogonal


def test_symmetry_flags():
    # odd blocks at 1 and 5 are partners at distance n=4; those at 2 are not
    kinds = ["even", "odd", "odd", "even", "even", "odd", "even", "even"]
    system = block_system(row_from_blocks(kinds, [1] * 8))
    report = conditions_report(system)
    assert report.symmetric_partner[1] == 5
    assert report.symmetric_partner[5] == 1
    assert report.symmetric_partner[2] is None
    assert not report.all_symmetric["odd"]
    assert report.all_symmetric["even"] == (
        all(report.symmetric_partner[i] is not None for i in system.kind_positions("even"))
    )


@pytest.mark.parametrize("layout", ["natural", "paired"])
@pytest.mark.parametrize("m", [4, 8, 12])
def test_all_symmetric_is_one_flag_for_both_kinds(m, layout):
    # a block without a same-kind partner at i + n leaves block i + n, of the other kind, without one
    for mask in range(1 << m):
        system = block_system(mask_to_signs(mask, m), layout=layout)
        per_kind = {kind: all(system.partner(i) is not None for i in system.kind_positions(kind))
                    for kind in ("even", "odd")}
        assert conditions_report(system).all_symmetric == per_kind
        assert per_kind["even"] == per_kind["odd"]


def test_matching_vacuous_for_singleton_kind():
    report = matching_report(block_system([1, 1, 1, -1]), "odd")
    assert report.perfect_matching_found
    assert report.matching == []


def test_matching_two_odd_blocks_at_distance_n():
    kinds = ["even", "odd", "even", "even", "even", "odd", "even", "even"]
    system = block_system(row_from_blocks(kinds, [1] * 8))
    report = matching_report(system, "odd")
    assert report.perfect_matching_found
    assert ((1, 5), (5, 1)) in report.matching or ((5, 1), (1, 5)) in report.matching


def test_matching_two_odd_blocks_elsewhere_fails():
    kinds = ["even", "odd", "odd", "even", "even", "even", "even", "even"]
    system = block_system(row_from_blocks(kinds, [1] * 8))
    report = matching_report(system, "odd")
    assert not report.perfect_matching_found
    assert report.failure_certificate is not None


def brute_force_matching(system: BlockSystem, kind: str) -> bool:
    # whole-set backtracking over ordered pairs with conjugate coupling,
    # no class decomposition; the independent oracle for matching_report
    positions = system.kind_positions(kind)
    pairs = [(i, j) for i in positions for j in positions if i != j]
    info = {p: pair_info(system, *p) for p in pairs}
    failed = set()

    def compatible(p, q):
        return info[p].difference == info[q].difference and info[p].sign == -info[q].sign

    def backtrack(remaining):
        if not remaining:
            return True
        if remaining in failed:
            return False
        p = min(remaining)
        for q in sorted(remaining - {p}):
            if not compatible(p, q):
                continue
            consumed = {p, q}
            cp, cq = (p[1], p[0]), (q[1], q[0])
            if {cp, cq} != consumed:
                if cp not in remaining or cq not in remaining or cp in consumed or cq in consumed:
                    continue
                consumed |= {cp, cq}
            if backtrack(remaining - frozenset(consumed)):
                return True
        failed.add(remaining)
        return False

    return backtrack(frozenset(pairs))


def test_matching_agrees_with_brute_force_exhaustive_m8():
    for mask in range(1 << 8):
        system = block_system(mask_to_signs(mask, 8))
        for kind in ("even", "odd"):
            assert matching_report(system, kind).perfect_matching_found == brute_force_matching(
                system, kind
            )


def test_matching_agrees_with_brute_force_random_m16():
    rng = np.random.default_rng(47)
    for _ in range(60):
        system = block_system(rng.choice([1, -1], 16))
        for kind in ("even", "odd"):
            assert matching_report(system, kind).perfect_matching_found == brute_force_matching(
                system, kind
            )


def test_matching_witness_pairs_are_valid():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 15:
        system = block_system(rng.choice([1, -1], 16))
        report = matching_report(system, "odd")
        if not report.perfect_matching_found or not report.matching:
            continue
        checked += 1
        seen = set()
        for p, q in report.matching:
            a, b = pair_info(system, *p), pair_info(system, *q)
            assert a.difference == b.difference
            assert a.sign == -b.sign
            assert p not in seen and q not in seen
            seen.add(p)
            seen.add(q)
        positions = system.kind_positions("odd")
        assert len(seen) == len(positions) * (len(positions) - 1)


def half_sequences(row):
    """c_k = (a_k + a_{k+2n})/2 and e_k = (a_k - a_{k+2n})/2 on C_2n: c is +-1 on the even
    blocks and 0 elsewhere, e is +-1 on the odd blocks and 0 elsewhere."""
    head, tail = np.split(np.asarray(row, dtype=np.int64), 2)
    return (head + tail) // 2, (head - tail) // 2


def periodic_af(c, d):
    return int(np.dot(c, np.roll(c, -d)))


def negacyclic_af(e, d):
    # the products that wrap past the end of C_2n change sign
    return int(np.dot(e[:-d], e[d:]) - np.dot(e[-d:], e[:d]))


def class_sign_sum(system, kind, d):
    positions = system.kind_positions(kind)
    return sum(pair_info(system, i, j).sign for i in positions for j in positions
               if i != j and (j - i) % system.block_count == d)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_class_sign_sums_are_half_sequence_autocorrelations(m):
    for mask in range(1 << m):
        row = mask_to_signs(mask, m)
        system = block_system(row)
        c, e = half_sequences(row)
        for d in range(1, system.block_count):
            assert class_sign_sum(system, "even", d) == periodic_af(c, d)
            assert class_sign_sum(system, "odd", d) == negacyclic_af(e, d)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_row_paf_is_made_of_the_half_sequence_autocorrelations(m):
    for mask in range(1 << m):
        row = mask_to_signs(mask, m)
        c, e = half_sequences(row)
        p = paf(row)
        half = m // 2
        for d in range(1, half):
            assert p[d] == 2 * (periodic_af(c, d) + negacyclic_af(e, d))
            assert p[d + half] == 2 * (periodic_af(c, d) - negacyclic_af(e, d))
        assert p[half] == 2 * (np.count_nonzero(c) - np.count_nonzero(e))


def block_verdicts(m):
    """(balanced, even kind matches, odd kind matches, flat PAF) of every order-m row."""
    for mask in range(1 << m):
        row = mask_to_signs(mask, m)
        system = block_system(row)
        yield (conditions_report(system).balance_ok,
               matching_report(system, "even").perfect_matching_found,
               matching_report(system, "odd").perfect_matching_found,
               paf_is_flat(row))


@pytest.mark.parametrize("m, flat", [(4, 8), (8, 0), (12, 0)])
def test_balanced_matching_blocks_are_exactly_the_flat_rows(m, flat):
    verdicts = list(block_verdicts(m))
    assert all((balanced and even and odd) == is_flat for balanced, even, odd, is_flat in verdicts)
    assert sum(is_flat for *_, is_flat in verdicts) == flat


# order 16 gives 3072, 4480 and 128 in about 12 s
@pytest.mark.parametrize("m, even, odd, both", [(8, 88, 144, 40), (12, 544, 688, 144)])
def test_rows_whose_block_kinds_match(m, even, odd, both):
    verdicts = [(e, o) for _, e, o, _ in block_verdicts(m)]
    assert sum(e for e, _ in verdicts) == even
    assert sum(o for _, o in verdicts) == odd
    assert sum(e and o for e, o in verdicts) == both


def analyze_digest(rows, layout):
    """sha256 over each row's `analyze --format json` stdout followed by its exit code."""
    digest = hashlib.sha256()
    for row in rows:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["analyze", f"--row={row}", "--layout", layout, "--format", "json"])
        digest.update(f"{out.getvalue()}exit {code}\n".encode())
    return digest.hexdigest()


def sign_string(signs):
    return "".join("+" if v > 0 else "-" for v in signs)


def seeded_block_rows():
    # 16 order-32 rows: half uniform, half with 8 even and 8 odd blocks in the paired layout
    rng = np.random.default_rng(1)
    blocks = 16
    rows = []
    for i in range(16):
        if i % 2 == 0:
            signs = rng.choice([1, -1], 32)
        else:
            odd = rng.permutation([0, 1] * (blocks // 2))
            first = rng.choice([1, -1], blocks)
            signs = np.stack([first, np.where(odd == 1, -first, first)], axis=1).ravel()
        rows.append(sign_string(signs))
    return rows


# natural-layout rows in which one kind of at least four blocks matches
# perfectly: the four even blocks of the first eight, the seven odd blocks of the last
MATCHED_ROWS = [
    "---+--------++-+++--+++-++-+--++",
    "+--+++++----+-++-+---+--++-+----",
    "++-++--++---+++--+---++----+---+",
    "+---++++--+-+-+--++++--+++-+++--",
    "--++-+-+++--++-+++++-+--+--+-+-+++-++-++--++--+----++-+--++-+-+-",
    "++-+--+---++++++-+-+++-+++----++--+-++-+++-+---++-+---+---+-++-+",
    "-+++-+-+++---+-+------++++-++++-+-----+---+++-++++++-+----+-----",
    "---+-++--+-+++-------+--++++-+-++-+-+-+++-+---+++-+++--+----+-+-",
    "--+-+---+++-+++++-----+--++--+-+",
]


ORDER8_ROWS = [sign_string(mask_to_signs(mask, 8)) for mask in range(1 << 8)]
ORDER12_ROWS = [sign_string(mask_to_signs(mask, 12)) for mask in range(1 << 12)]


@pytest.mark.parametrize("rows, layout, digest", [
    (ORDER8_ROWS, "natural",
     "c7af61a154a73cb07d52de444ed3fff7b81fde34788cba737db617874ac95d28"),
    (ORDER8_ROWS, "paired",
     "fc03b346cd3ee90830ed0fb42efbc3f27e78e8db2c89e2af7db897830d195ed2"),
    (seeded_block_rows(), "paired",
     "427d65b0a61398196e6addda0e97dc76582416ec4714447a3c93af0e16c2c3dc"),
    (MATCHED_ROWS, "natural",
     "de648694dc54d9f83b8c34946a1084682941e622fe3383934cf8758b5020bac2"),
    # the first exhaustive pin with n odd; the paired layout covers the same systems
    (ORDER12_ROWS, "natural",
     "4f38fe9066fabc42fc2bf7cccf1c68415572b90a212c0f0332990ef45ce1265c"),
], ids=["order8-natural", "order8-paired", "order32-seeded", "matched", "order12-natural"])
def test_analyze_output_is_pinned(rows, layout, digest):
    assert analyze_digest(rows, layout) == digest


def _symmetric_odd_system(odd_signs, even_signs=(1, 1, 1, 1)):
    # odd blocks at 0, 1, 4, 5 of a 2n = 8 system; 0<->4 and 1<->5 are partners
    kinds = ["odd", "odd", "even", "even", "odd", "odd", "even", "even"]
    signs = [odd_signs[0], odd_signs[1], even_signs[0], even_signs[1],
             odd_signs[2], odd_signs[3], even_signs[2], even_signs[3]]
    return block_system(row_from_blocks(kinds, signs))


def test_quadruple_remainders_structure():
    for bits in range(16):
        signs = [1 if (bits >> k) & 1 else -1 for k in range(4)]
        system = _symmetric_odd_system(signs)
        result = quadruple_remainders(system, 0, 1)
        assert result.quadruple == (0, 1, 4, 5)
        p, q = result.remainders
        a, b = pair_info(system, *p), pair_info(system, *q)
        # the leftover pairs agree in difference and in sign
        assert a.difference == b.difference
        assert a.sign == b.sign
        cp, cq = result.remainder_conjugates
        ca, cb = pair_info(system, *cp), pair_info(system, *cq)
        assert ca.difference == cb.difference
        assert ca.sign == cb.sign
        if result.cross_matched:
            assert set(result.remainders) == {(1, 4), (5, 0)}
        else:
            assert set(result.remainders) == {(0, 1), (4, 5)}


def test_quadruple_dichotomy_exhaustive_m16():
    # every placement of two symmetric odd pairs and every sign assignment
    # resolves to exactly one matching branch (the checker raises otherwise)
    def match(system, p, q):
        a, b = pair_info(system, *p), pair_info(system, *q)
        return a.difference == b.difference and a.sign == -b.sign

    cases = 0
    for i in range(4):
        for j in range(i + 1, 4):
            odd_positions = {i, j, i + 4, j + 4}
            kinds = ["odd" if p in odd_positions else "even" for p in range(8)]
            for bits in range(16):
                signs_by_pos = iter(1 if (bits >> k) & 1 else -1 for k in range(4))
                signs = [next(signs_by_pos) if kind == "odd" else 1 for kind in kinds]
                system = block_system(row_from_blocks(kinds, signs))
                result = quadruple_remainders(system, i, j)
                ip, jp = i + 4, j + 4
                cross = match(system, (i, j), (ip, jp))
                adjacent = match(system, (j, ip), (jp, i))
                assert cross != adjacent
                assert result.cross_matched == cross
                # the self-conjugate pairs always match
                assert match(system, (i, ip), (ip, i))
                assert match(system, (j, jp), (jp, j))
                cases += 1
    assert cases == 6 * 16


def test_quadruple_remainders_preconditions():
    system = _symmetric_odd_system([1, 1, 1, 1])
    for i, j in ((-4, 1), (0, 8)):  # -4 would wrap onto block 4, i's own partner
        with pytest.raises(ValueError, match="block indices"):
            quadruple_remainders(system, i, j)
    with pytest.raises(ValueError):
        quadruple_remainders(system, 1, 0)
    with pytest.raises(ValueError):
        quadruple_remainders(system, 0, 2)  # block 2 is even
    with pytest.raises(ValueError):
        quadruple_remainders(system, 0, 4)  # j is i's own partner
    kinds = ["odd", "odd", "even", "even", "odd", "even", "even", "even"]
    lopsided = block_system(row_from_blocks(kinds, [1] * 8))
    with pytest.raises(ValueError):
        quadruple_remainders(lopsided, 0, 1)  # block 1 has no partner
