import contextlib
import hashlib
import io
import itertools

import numpy as np
import pytest

from circhad import (
    assemble_block_matrix,
    block_system,
    circulant_from_row,
    conditions_report,
    matching_report,
    paf,
    paf_is_flat,
    paired_listing,
    rg_matrix,
    row_from_blocks,
)
from circhad.cli import main
from sign_reference import mask_to_signs, same_kind_pairs

# (c_k, e_k) of the blocks (+,+), (-,-), (+,-) and (-,+): even +, even -, odd +, odd -
ALL_BLOCKS = [(1, 0), (-1, 0), (0, 1), (0, -1)]

BLOCKED = np.array([[1, 1, 1, -1], [1, 1, -1, 1], [-1, 1, 1, 1], [1, -1, 1, 1]])


def block_entries(c, e):
    """The block [[c+e, c-e], [c-e, c+e]] whose half-sequence values are c and e."""
    return np.array([[c + e, c - e], [c - e, c + e]])


def kinds_and_signs(system):
    """(kind, sign) of each block, read off the half sequences: block k is even with
    sign c_k where S_k = 1, else odd with sign e_k."""
    S, c, e = system._halves
    return [("even", int(ck)) if s else ("odd", int(ek)) for s, ck, ek in zip(S, c, e)]


def test_block_kinds_and_signs():
    # one row holding the four blocks
    S, c, e = block_system([1, -1, 1, -1, 1, -1, -1, 1])._halves
    assert S.tolist() == [1, 1, 0, 0]
    assert list(zip(c.tolist(), e.tolist())) == ALL_BLOCKS


def test_block_entry_shape():
    top = assemble_block_matrix(block_system([1, -1, 1, -1, 1, -1, -1, 1])).entries[:2]
    for k, (c, e) in enumerate(ALL_BLOCKS):
        assert np.array_equal(top[:, 2 * k : 2 * k + 2], block_entries(c, e))
    assert block_entries(0, 1).tolist() == [[1, -1], [-1, 1]]


def test_block_system_of_eq1_row():
    system = block_system([1, 1, 1, -1])
    assert kinds_and_signs(system) == [("even", 1), ("odd", 1)]
    assert system.n == 1


def test_block_system_all_plus():
    S, c, e = block_system([1] * 8)._halves
    assert S.tolist() == c.tolist() == [1] * 4
    assert not e.any()


def test_block_system_paired_layout_of_16x16_display_row():
    row = [1, 1, 1, -1, 1, 1, 1, -1, 1, 1, 1, -1, -1, -1, -1, 1]
    system = block_system(row, layout="paired")
    assert kinds_and_signs(system) == [
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
        assert a == b
        assert a.source_row == tuple(natural.tolist())


def test_block_system_rejects_bad_input():
    with pytest.raises(ValueError):
        block_system([1, 1, -1])
    with pytest.raises(ValueError):
        block_system([1, 1, 1, 2])
    with pytest.raises(ValueError):
        block_system([1, 1, 1, -1], layout="diagonal")


def test_twist_rules():
    # the twist swaps a block's columns, which flips the sign of e_k: an even block
    # stays, an odd one is negated and changes sign
    for c, e in ALL_BLOCKS:
        block, twisted = block_entries(c, e), block_entries(c, -e)
        assert np.array_equal(twisted, block[:, ::-1])
        assert np.array_equal(twisted, block if e == 0 else -block)
    # block 1 of [1, 1, 1, -1] wraps into block-row 1, twisted
    assert np.array_equal(BLOCKED[2:, :2], block_entries(0, -1))


def test_block_product_law():
    # a block is c*J + e*K, where J = [[1, 1], [1, 1]] and K = [[1, -1], [-1, 1]] satisfy
    # J@J = 2J, K@K = 2K and J@K = K@J = 0: same-kind products are rank-one +-2
    # patterns, mixed kinds annihilate
    J, K = block_entries(1, 0), block_entries(0, 1)
    for a in ALL_BLOCKS:
        for b in ALL_BLOCKS:
            product = block_entries(*a) @ block_entries(*b)
            assert np.array_equal(product, 2 * (a[0] * b[0] * J + a[1] * b[1] * K))
            if (a[0] == 0) != (b[0] == 0):
                assert not product.any()


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
        kinds, signs = zip(*kinds_and_signs(system))
        assert tuple(row_from_blocks(kinds, signs).tolist()) == system.source_row


def test_row_from_blocks_rejects_bad_blocks():
    with pytest.raises(ValueError, match="even number"):
        row_from_blocks(["even", "odd", "odd"], [1, 1, 1])
    with pytest.raises(ValueError, match="even number"):
        row_from_blocks(["even", "odd"], [1])
    with pytest.raises(ValueError, match="positive even number"):
        row_from_blocks([], [])
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
    pairs = same_kind_pairs(row_from_blocks(kinds, [1] * 8), "odd")
    assert set(pairs) == {(1, 3), (3, 1)}
    assert pairs[1, 3][0] == 2
    assert pairs[3, 1][0] == 6
    # odd blocks at 1 and 7: the pair (7, 1) wraps, so its sign is -e_7 e_1
    kinds = ["even", "odd", "even", "even", "even", "even", "even", "odd"]
    row = row_from_blocks(kinds, [1] * 8)
    _, _, e = block_system(row)._halves
    assert same_kind_pairs(row, "odd")[7, 1] == (2, -e[7] * e[1]) == (2, -1)


def test_pair_info_difference_conjugate_sum():
    # the same-kind pairs are the ordered pairs of distinct blocks where c (even) or
    # e (odd) is not 0, and a pair's difference and its conjugate's add up to 2n
    rng = np.random.default_rng(41)
    for _ in range(20):
        row = rng.choice([1, -1], 16)
        _, c, e = block_system(row)._halves
        for kind, x in (("even", c), ("odd", e)):
            pairs = same_kind_pairs(row, kind)
            positions = np.flatnonzero(x).tolist()
            assert list(pairs) == [(i, j) for i in positions for j in positions if i != j]
            for (i, j), (d, _) in pairs.items():
                assert d + pairs[j, i][0] == 8
                assert 1 <= d <= 7


def test_pair_info_sign_symmetry():
    # a pair's sign is c_i c_j, or e_i e_j negated when an odd pair wraps (j < i), so
    # reversing an even pair keeps its sign and reversing an odd one flips it
    rng = np.random.default_rng(43)
    for _ in range(20):
        row = rng.choice([1, -1], 16)
        _, c, e = block_system(row)._halves
        for kind, x, expected in (("even", c, 1), ("odd", e, -1)):
            pairs = same_kind_pairs(row, kind)
            for (i, j), (_, sign) in pairs.items():
                assert sign == x[i] * x[j] * (expected if j < i else 1)
                assert pairs[j, i][1] == expected * sign


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
        all(report.symmetric_partner[i] is not None for i in np.flatnonzero(system._halves[0]))
    )


@pytest.mark.parametrize("layout", ["natural", "paired"])
@pytest.mark.parametrize("m", [4, 8, 12])
def test_all_symmetric_is_one_flag_for_both_kinds(m, layout):
    # a block without a same-kind partner at i + n leaves block i + n, of the other kind, without one
    n = m // 4
    for mask in range(1 << m):
        row = mask_to_signs(mask, m)
        system = block_system(row, layout=layout)
        natural = row if layout == "natural" else np.concatenate([row[0::2], row[1::2]])
        even = [natural[k] == natural[k + 2 * n] for k in range(2 * n)]
        per_kind = {kind: all(even[(i + n) % (2 * n)] == even[i]
                              for i in range(2 * n) if even[i] == (kind == "even"))
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


def brute_force_matching(row, kind: str) -> bool:
    # whole-set backtracking over ordered pairs with conjugate coupling,
    # no class decomposition; the independent oracle for matching_report
    info = same_kind_pairs(row, kind)
    failed = set()

    def compatible(p, q):
        return info[p][0] == info[q][0] and info[p][1] == -info[q][1]

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

    return backtrack(frozenset(info))


def test_matching_agrees_with_brute_force_exhaustive_m8():
    for mask in range(1 << 8):
        row = mask_to_signs(mask, 8)
        system = block_system(row)
        for kind in ("even", "odd"):
            assert matching_report(system, kind).perfect_matching_found == brute_force_matching(
                row, kind
            )


def test_matching_agrees_with_brute_force_random_m16():
    rng = np.random.default_rng(47)
    for _ in range(60):
        row = rng.choice([1, -1], 16)
        system = block_system(row)
        for kind in ("even", "odd"):
            assert matching_report(system, kind).perfect_matching_found == brute_force_matching(
                row, kind
            )


def test_matching_witness_pairs_are_valid():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 15:
        row = rng.choice([1, -1], 16)
        report = matching_report(block_system(row), "odd")
        if not report.perfect_matching_found or not report.matching:
            continue
        checked += 1
        pairs = same_kind_pairs(row, "odd")
        seen = set()
        for p, q in report.matching:
            (dp, sp), (dq, sq) = pairs[p], pairs[q]
            assert dp == dq
            assert sp == -sq
            assert p not in seen and q not in seen
            seen.add(p)
            seen.add(q)
        assert seen == set(pairs)


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


def class_sign_sums(row, kind):
    """The sum of the pair signs of each difference class d, at index d (index 0 is unused)."""
    sums = [0] * (len(row) // 2)
    for d, sign in same_kind_pairs(row, kind).values():
        sums[d] += sign
    return sums


@pytest.mark.parametrize("m", [4, 8, 12])
def test_class_sign_sums_are_half_sequence_autocorrelations(m):
    for mask in range(1 << m):
        row = mask_to_signs(mask, m)
        S, c, e = block_system(row)._halves
        assert [c.tolist(), e.tolist()] == [x.tolist() for x in half_sequences(row)]
        assert S.tolist() == (c != 0).tolist()
        even, odd = class_sign_sums(row, "even"), class_sign_sums(row, "odd")
        for d in range(1, m // 2):
            assert even[d] == periodic_af(c, d)
            assert odd[d] == negacyclic_af(e, d)


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


def quadruple_row(i, j, bits):
    # odd blocks at i, j, i + 4 and j + 4 of a 2n = 8 system, so i<->i+4 and j<->j+4 are
    # partners, signed by bits 0..3 of `bits` in that order; the even blocks are +
    odd = (i, j, i + 4, j + 4)
    signs = iter(1 if (bits >> k) & 1 else -1 for k in range(4))
    return row_from_blocks(["odd" if p in odd else "even" for p in range(8)],
                           [next(signs) if p in odd else 1 for p in range(8)])


def test_quadruple_remainders_structure():
    # the quadruple {0, 1, 4, 5}: (0,1)~(4,5) match when e_0 e_1 e_4 e_5 = -1, else
    # (1,4)~(5,0) do; the other couple remains, and its pairs, like their conjugates,
    # agree in difference and in sign
    for bits in range(16):
        row = quadruple_row(0, 1, bits)
        _, _, e = block_system(row)._halves
        cross_matched = e[0] * e[1] * e[4] * e[5] == -1
        p, q = ((1, 4), (5, 0)) if cross_matched else ((0, 1), (4, 5))
        pairs = same_kind_pairs(row, "odd")
        assert pairs[p] == pairs[q]
        assert pairs[p[::-1]] == pairs[q[::-1]]


def test_quadruple_dichotomy_exhaustive_m16():
    # every placement of two symmetric odd pairs and every sign assignment resolves
    # to exactly one matching branch, read off the sign of e_i e_j e_i' e_j'
    cases = 0
    for i, j in itertools.combinations(range(4), 2):
        ip, jp = i + 4, j + 4
        for bits in range(16):
            row = quadruple_row(i, j, bits)
            pairs = same_kind_pairs(row, "odd")

            def match(p, q):
                return pairs[p][0] == pairs[q][0] and pairs[p][1] == -pairs[q][1]

            _, _, e = block_system(row)._halves
            product = e[i] * e[j] * e[ip] * e[jp]
            cross = match((i, j), (ip, jp))
            adjacent = match((j, ip), (jp, i))
            assert cross != adjacent
            assert cross == (product == -1)
            assert adjacent == (product == 1)
            # the self-conjugate pairs always match
            assert match((i, ip), (ip, i))
            assert match((j, jp), (jp, j))
            cases += 1
    assert cases == 6 * 16
