import re

import numpy as np
import pytest

import circhad.groupring as groupring
from circhad import (
    CapacityError,
    GroupRingElement,
    Listing,
    SignMatrix,
    circulant_from_row,
    circulant_sign_matrix,
    cyclic_group,
    direct_product,
    group_by_name,
    is_hadamard,
    is_rg_matrix,
    natural_listing,
    paf,
    paired_listing,
    quaternion_group,
    recover_listing,
    relist,
    rg_matrix,
    rg_sign_matrix,
)
from circhad.blocks import block_system, row_from_blocks
from circhad.groupring import placement_order
from circhad.constructions import FAMILIES, c2c8_matrix, kronecker_extend, quaternion_c2_matrix

EQ1 = np.array([[1, 1, 1, -1], [-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1]])
BLOCKED = np.array([[1, 1, 1, -1], [1, 1, -1, 1], [-1, 1, 1, 1], [1, -1, 1, 1]])


def test_rg_matrix_of_w_is_the_circulant():
    w = circulant_from_row([1, 1, 1, -1])
    assert np.array_equal(rg_matrix(w, natural_listing(w.group)), EQ1)


def test_rg_matrix_under_paired_listing_is_the_blocked_display():
    w = circulant_from_row([1, 1, 1, -1])
    assert np.array_equal(rg_matrix(w, paired_listing(4)), BLOCKED)


def test_identity_element_maps_to_identity_matrix():
    g = cyclic_group(5)
    w = GroupRingElement(g, [1, 0, 0, 0, 0])
    for listing in (natural_listing(g), Listing(g, [0, 3, 1, 4, 2])):
        assert np.array_equal(rg_matrix(w, listing), np.eye(5, dtype=np.int64))


def test_listing_group_mismatch_rejected():
    w = circulant_from_row([1, 1, 1, -1])
    with pytest.raises(ValueError):
        rg_matrix(w, natural_listing(cyclic_group(5)))


def test_sign_restricted_constructor():
    g = cyclic_group(3)
    elem = GroupRingElement(g, [1, -1, -1])
    assert elem.coeffs.tolist() == [1, -1, -1]


def test_circulant_from_row_order_one_and_two():
    assert np.array_equal(circulant_sign_matrix([1]).entries, [[1]])
    # oracle: circ[r][c] = row[(c-r) mod m]
    row = np.array([1, -1])
    expected = np.array([[row[(c - r) % 2] for c in range(2)] for r in range(2)])
    assert np.array_equal(circulant_sign_matrix(row).entries, expected)
    assert expected.tolist() == [[1, -1], [-1, 1]]


def test_circulant_from_row_rejects_non_signs():
    with pytest.raises(ValueError):
        circulant_from_row([1, 2, 1, 1])


def test_relist_natural_to_paired_gives_blocked_display():
    w = circulant_from_row([1, 1, 1, -1])
    m = rg_sign_matrix(w, natural_listing(w.group))
    relisted = relist(m, natural_listing(w.group), Listing(w.group, [0, 2, 1, 3]))
    assert np.array_equal(relisted.entries, BLOCKED)


def test_relist_identity_and_involution():
    rng = np.random.default_rng(7)
    g = cyclic_group(6)
    w = GroupRingElement(g, rng.choice([1, -1], 6))
    nat = natural_listing(g)
    m = rg_sign_matrix(w, nat)
    assert np.array_equal(relist(m, nat, nat).entries, m.entries)
    swapped = Listing(g, [0, 2, 1, 3, 4, 5])
    once = relist(m, nat, swapped)
    # relisting back along the transposition restores the original
    assert np.array_equal(relist(once, swapped, nat).entries, m.entries)


def test_relist_agrees_with_rg_matrix_for_random_listings():
    rng = np.random.default_rng(11)
    g = direct_product(cyclic_group(2), cyclic_group(4))
    w = GroupRingElement(g, rng.choice([1, -1], g.order))
    nat = natural_listing(g)
    m = rg_sign_matrix(w, nat)
    for _ in range(25):
        target = Listing(g, rng.permutation(g.order))
        assert np.array_equal(relist(m, nat, target).entries, rg_matrix(w, target))


@pytest.mark.parametrize(
    "group_factory",
    [
        lambda: cyclic_group(4),
        lambda: cyclic_group(9),
        lambda: quaternion_group(),
        lambda: direct_product(cyclic_group(2), cyclic_group(8)),
    ],
)
def test_ring_embedding_property(group_factory):
    # matrix of a product equals the product of the matrices
    rng = np.random.default_rng(13)
    g = group_factory()
    listing = Listing(g, rng.permutation(g.order))
    for _ in range(10):
        u = GroupRingElement(g, rng.integers(-4, 5, g.order))
        v = GroupRingElement(g, rng.integers(-4, 5, g.order))
        lhs = rg_matrix(u * v, listing)
        rhs = rg_matrix(u, listing) @ rg_matrix(v, listing)
        assert np.array_equal(lhs, rhs)


def test_hadamard_is_listing_invariant():
    rng = np.random.default_rng(17)
    w = circulant_from_row([1, 1, 1, -1])
    not_had = circulant_from_row([1, 1, 1, 1])
    for _ in range(100):
        listing = Listing(w.group, rng.permutation(4))
        assert is_hadamard(rg_sign_matrix(w, listing)).is_hadamard
        assert not is_hadamard(rg_sign_matrix(not_had, listing)).is_hadamard


def test_is_rg_matrix_true_by_construction():
    rng = np.random.default_rng(19)
    for factory in (lambda: cyclic_group(6), lambda: quaternion_group()):
        g = factory()
        for _ in range(10):
            w = GroupRingElement(g, rng.choice([1, -1], g.order))
            listing = Listing(g, rng.permutation(g.order))
            assert is_rg_matrix(rg_sign_matrix(w, listing), g, listing)


def test_is_rg_matrix_detects_single_flip():
    g = cyclic_group(4)
    entries = EQ1.copy()
    entries[2, 3] = -entries[2, 3]
    assert not is_rg_matrix(SignMatrix(entries), g, natural_listing(g))


def test_is_rg_matrix_all_ones():
    g = cyclic_group(4)
    assert is_rg_matrix(SignMatrix(np.ones((4, 4), dtype=int)), g, natural_listing(g))


def test_is_rg_matrix_size_mismatch():
    g = cyclic_group(4)
    with pytest.raises(ValueError):
        is_rg_matrix(SignMatrix(np.ones((5, 5), dtype=int)), g, natural_listing(g))


def test_recover_listing_natural_first():
    g = cyclic_group(4)
    assert recover_listing(SignMatrix(EQ1), g).perm == (0, 1, 2, 3)


def test_recover_listing_blocked_display():
    g = cyclic_group(4)
    assert recover_listing(SignMatrix(BLOCKED), g).perm == (0, 2, 1, 3)


def test_recover_listing_not_found_on_broken_pattern():
    g = cyclic_group(4)
    entries = EQ1.copy()
    entries[3, 0] = -entries[3, 0]
    assert recover_listing(SignMatrix(entries), g) is None


def random_rg_matrices():
    # five +-1 RG-matrices under a random hidden listing over each order-8 group
    rng = np.random.default_rng(23)
    for factory in (
        lambda: cyclic_group(8),
        lambda: direct_product(cyclic_group(2), cyclic_group(4)),
        lambda: quaternion_group(),
    ):
        g = factory()
        for _ in range(5):
            w = GroupRingElement(g, rng.choice([1, -1], g.order))
            hidden = Listing(g, np.concatenate([[0], 1 + rng.permutation(g.order - 1)]))
            yield rg_sign_matrix(w, hidden), g


def test_recover_listing_soundness_on_random_rg_matrices():
    for matrix, g in random_rg_matrices():
        found = recover_listing(matrix, g)
        assert found is not None
        assert is_rg_matrix(matrix, g, found)


def reference_recover_listing(m, group):
    """The numpy-indexed search that the list-based one replaced, with no budget.

    Returns the first listing's perm (or None) and the number of nodes explored.
    """
    arr = m.entries if isinstance(m, SignMatrix) else np.asarray(m, dtype=np.int64)
    n = group.order
    mul = group.mul_table
    inv = group.inv_table
    UNKNOWN = np.iinfo(np.int64).min
    coeffs = np.full(n, UNKNOWN, dtype=np.int64)
    perm = [0]
    used = [False] * n
    used[0] = True
    coeffs[0] = arr[0, 0]
    nodes = 0

    def consistent(p, e, learned):
        for q in range(p + 1):
            f = perm[q] if q < p else e
            for g, val in ((mul[inv[f], e], arr[q, p]), (mul[inv[e], f], arr[p, q])):
                known = coeffs[g]
                if known == UNKNOWN:
                    coeffs[g] = val
                    learned.append(g)
                elif known != val:
                    return False
        return True

    untried = [iter(range(n))]
    learned_by = []
    while len(perm) < n:
        p = len(perm)
        for e in untried[-1]:
            if used[e]:
                continue
            nodes += 1
            learned = []
            if consistent(p, e, learned):
                perm.append(e)
                used[e] = True
                learned_by.append(learned)
                untried.append(iter(range(n)))
                break
            for g in learned:
                coeffs[g] = UNKNOWN
        else:
            untried.pop()
            if not learned_by:
                return None, nodes
            used[perm.pop()] = False
            for g in learned_by.pop():
                coeffs[g] = UNKNOWN
    return tuple(perm), nodes


def recovered_within(monkeypatch, matrix, group, nodes):
    # the search's answer within a budget of exactly `nodes`; one node fewer
    # stops it, so it explores exactly that many
    monkeypatch.setattr(groupring, "RECOVERY_NODE_BUDGET", nodes - 1)
    with pytest.raises(CapacityError, match=f"after exploring {nodes - 1} nodes$"):
        recover_listing(matrix, group)
    monkeypatch.setattr(groupring, "RECOVERY_NODE_BUDGET", nodes)
    return recover_listing(matrix, group)


def assert_reference_verdict(matrix, group, found):
    # the exhaustive reference decides whether a listing exists; any listing
    # the search returns must make the matrix an RG-matrix
    perm, _ = reference_recover_listing(matrix, group)
    assert (found is not None) == (perm is not None)
    if found is not None:
        assert found.perm[0] == 0
        assert is_rg_matrix(matrix, group, found)


# nodes the search explores on each matrix of random_rg_matrices(), in order
RANDOM_RG_NODES = [29, 7, 7, 7, 7, 9, 9, 34, 8, 7, 22, 8, 7, 7, 8]
# and on each integer matrix of the test below, in order
INTEGER_RG_NODES = [19, 7, 10, 10, 7, 13, 7, 7, 15, 9, 7, 7, 8, 7, 8]


def test_recover_listing_matches_reference_on_small_cases(monkeypatch):
    g = cyclic_group(4)
    broken = EQ1.copy()
    broken[3, 0] = -broken[3, 0]
    broken_diagonal = EQ1.copy()
    broken_diagonal[3, 3] = -broken_diagonal[3, 3]
    for entries, expected, nodes in ((EQ1, (0, 1, 2, 3), 3), (BLOCKED, (0, 2, 1, 3), 4),
                                     (broken, None, 4), (broken_diagonal, None, 4)):
        found = recovered_within(monkeypatch, SignMatrix(entries), g, nodes)
        assert (None if found is None else found.perm) == expected
        assert_reference_verdict(SignMatrix(entries), g, found)
    for (matrix, group), nodes in zip(random_rg_matrices(), RANDOM_RG_NODES, strict=True):
        found = recovered_within(monkeypatch, matrix, group, nodes)
        assert found is not None
        assert_reference_verdict(matrix, group, found)


def test_recover_listing_matches_reference_on_integer_matrices(monkeypatch):
    # mostly zero coefficients: a coefficient learned as 0 is known, so the
    # mark for an unknown one must not be an integer the matrix can hold
    rng = np.random.default_rng(29)
    pinned = iter(INTEGER_RG_NODES)
    for g in (cyclic_group(8), direct_product(cyclic_group(2), cyclic_group(4)), quaternion_group()):
        for _ in range(5):
            w = GroupRingElement(g, rng.choice([0, 0, 0, 1, -2], g.order))
            hidden = Listing(g, np.concatenate([[0], 1 + rng.permutation(g.order - 1)]))
            matrix = rg_matrix(w, hidden)
            found = recovered_within(monkeypatch, matrix, g, next(pinned))
            assert found is not None
            assert_reference_verdict(matrix, g, found)
    assert next(pinned, None) is None


def test_recover_listing_over_many_values_and_a_value_off_row_zero():
    # 300 distinct coefficients need 16-bit codes; an entry that row 0 does
    # not hold cannot be a coefficient, so no listing exists
    rng = np.random.default_rng(37)
    g = cyclic_group(300)
    w = GroupRingElement(g, 7 * rng.permutation(300) - 1000)
    hidden = Listing(g, np.concatenate([[0], 1 + rng.permutation(299)]))
    matrix = rg_matrix(w, hidden)
    found = recover_listing(matrix, g)
    assert found is not None
    assert is_rg_matrix(matrix, g, found)
    # in place of an entry holding the smallest coefficient, which a code of
    # 0 for every unmatched entry would silently restore
    r, c = np.argwhere(matrix[1:] == matrix.min())[0]
    matrix[1 + r, c] = 10**6
    assert recover_listing(matrix, g) is None


# The listings that the README gives; the C16 search finds none.
README_LISTINGS = {
    "c2xc8": (0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15),
    "q8c2": (0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15),
}


@pytest.mark.parametrize("name, nodes", [("c16", 307), ("c2xc8", 27), ("q8c2", 78)])
def test_recover_listing_explores_a_fixed_number_of_nodes(monkeypatch, name, nodes):
    if name == "c16":
        matrix, group = c2c8_matrix().matrix, cyclic_group(16)
    else:
        construction = c2c8_matrix() if name == "c2xc8" else quaternion_c2_matrix()
        matrix, group = construction.matrix, construction.group
    found = recovered_within(monkeypatch, matrix, group, nodes)
    assert_reference_verdict(matrix, group, found)
    assert (None if found is None else found.perm) == README_LISTINGS.get(name)


def broken_rg_matrices(name, rng):
    # RG-matrices over the group with one entry flipped or two rows swapped:
    # three of random +-1 elements under hidden listings, and the group's
    # 16x16 Hadamard construction where there is one
    g = group_by_name(name)
    bases = []
    for _ in range(3):
        w = GroupRingElement(g, rng.choice([1, -1], g.order))
        hidden = Listing(g, np.concatenate([[0], 1 + rng.permutation(g.order - 1)]))
        bases.append(rg_sign_matrix(w, hidden).entries)
    construction = {"C2xC8": c2c8_matrix, "Q8xC2": quaternion_c2_matrix}.get(name)
    if construction is not None:
        bases.append(construction().matrix.entries)
    for entries in bases:
        flipped = entries.copy()
        r, c = rng.integers(g.order, size=2)
        flipped[r, c] = -flipped[r, c]
        swapped = entries.copy()
        r, s = rng.choice(g.order, 2, replace=False)
        swapped[[r, s]] = swapped[[s, r]]
        yield SignMatrix(flipped), g
        yield SignMatrix(swapped), g


@pytest.mark.parametrize("name", ["C8", "C2xC4", "C2xC2xC2", "Q8", "C16", "C2xC8", "Q8xC2"])
def test_recover_listing_matches_reference_on_broken_rg_matrices(name):
    rng = np.random.default_rng(31)
    verdicts = []
    for matrix, g in broken_rg_matrices(name, rng):
        found = recover_listing(matrix, g)
        assert_reference_verdict(matrix, g, found)
        verdicts.append(found is not None)
    assert not all(verdicts)


def group_names(limit):
    # one spec per multiset of factors C2..C<limit> and Q8 with order <= limit
    factors = [("Q8", 8)] + [(f"C{k}", k) for k in range(2, limit + 1)]

    def extend(start, order):
        for i in range(start, len(factors)):
            name, k = factors[i]
            if order * k <= limit:
                yield [name]
                for rest in extend(i, order * k):
                    yield [name, *rest]

    return ["C1"] + ["x".join(spec) for spec in extend(0, 1)]


def test_placement_order_runs_along_a_subgroup_chain():
    names = group_names(64)
    assert {"C64", "Q8xC8", "Q8xQ8", "C2xC2xC2xC2xC2xC2", "C4xC16"} <= set(names)
    for name in names:
        g = group_by_name(name)
        order = placement_order(g)
        assert order[0] == 0
        assert sorted(order) == list(range(g.order)), name
        if name.startswith("C") and "x" not in name:
            assert order == list(range(g.order))
        orders = g.element_orders()
        generators = []
        for i in range(1, g.order):
            listed = order[:i]
            products = g.mul_table[np.ix_(listed, listed)]
            if np.isin(products, listed).all():
                # the elements so far are a subgroup, so a generator comes next:
                # the largest order outside it, lowest index on a tie
                outside = sorted(set(range(g.order)) - set(listed))
                assert order[i] == max(outside, key=lambda a: (orders[a], -a)), name
                generators.append(order[i])
            else:
                assert order[i] in g.mul_table[np.ix_(listed, generators)], name


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        SignMatrix([[1, 2], [1, 1]])
    with pytest.raises(ValueError):
        SignMatrix([[1, 1, 1], [1, 1, -1]])


def _entry_points():
    # (call taking one +-1 value list, message) for every entry point that
    # accepts +-1 data; each is given a 4-entry row or a 2 x 2 matrix.
    def square(v):
        return [v[:2], v[2:]]

    return {
        "SignMatrix": (lambda v: SignMatrix(square(v)), "matrix entries must all be +1 or -1"),
        "as_sign_array": (lambda v: groupring.as_sign_array(square(v)), "matrix entries must all be +1 or -1"),
        "paf": (paf, "row entries must all be +1 or -1"),
        "circulant_from_row": (circulant_from_row, "first row entries must all be +1 or -1"),
        "block_system": (block_system, "row entries must all be +1 or -1"),
        "row_from_blocks": (lambda v: row_from_blocks(["even", "odd", "odd", "even"], v),
                            "block signs must all be +1 or -1"),
    }


@pytest.mark.parametrize("bad", [1.5, 257, -1.9, 255, -257])
@pytest.mark.parametrize("name", sorted(_entry_points()))
def test_sign_entry_points_validate_before_casting(name, bad):
    # 1.5 and -1.9 would truncate to +-1 and 255 and 257 wrap to +-1 in int8,
    # so each must be refused as given.
    call, message = _entry_points()[name]
    call([1, -1, 1, -1])
    with pytest.raises(ValueError, match=re.escape(message)):
        call([1, -1, 1, bad])


def test_sign_matrix_entries_are_int8():
    m = SignMatrix([[1.0, 1.0], [1.0, -1.0]])
    assert m.entries.dtype == np.int8
    assert m.entries.tolist() == [[1, 1], [1, -1]]
    assert not is_hadamard([[1, 1], [1, 1]]).is_hadamard
    with pytest.raises(ValueError, match="must all be"):
        is_hadamard([[1.5, 1], [1, -1.9]])


def c4_power_construction(times):
    construction = FAMILIES["c4"]()
    for _ in range(times):
        construction = kronecker_extend(construction, FAMILIES["c4"]())
    return construction


@pytest.mark.parametrize("block", [1, 5, 64, 256])
def test_is_rg_matrix_checks_every_row_block(monkeypatch, block):
    monkeypatch.setattr(groupring, "RG_BLOCK_ROWS", block)
    ext = c4_power_construction(3)  # 256 x 256 over C4^4
    n = ext.size
    assert is_rg_matrix(ext.matrix, ext.group, ext.listing)
    # one flipped entry in the last row, the first row of a later block, or row 1
    for r, c in ((n - 1, 0), (n - 1, n - 1), (64, 3), (1, n - 2)):
        entries = ext.matrix.entries.copy()
        entries[r, c] = -entries[r, c]
        assert not is_rg_matrix(SignMatrix(entries), ext.group, ext.listing), (r, c)


def test_is_rg_matrix_rejects_a_break_in_the_last_row_block_only():
    ext = c4_power_construction(4)  # 1024 x 1024 over C4^5
    n = ext.size
    assert n % groupring.RG_BLOCK_ROWS == 0
    assert is_rg_matrix(ext.matrix, ext.group, ext.listing)
    entries = ext.matrix.entries.copy()
    entries[n - 1, n // 2] = -entries[n - 1, n // 2]
    assert not is_rg_matrix(SignMatrix(entries), ext.group, ext.listing)


C2 = cyclic_group(2)


@pytest.mark.parametrize("value", [1.5, -0.5, float("nan"), float("inf"), 2.0**63, 2**63])
def test_integer_inputs_are_not_truncated(value):
    # each of these would have been cast to int64 and silently changed
    matrix = [[value, 1], [1, value]]
    with pytest.raises(ValueError, match="matrix entries must all be integers"):
        is_rg_matrix(matrix, C2, natural_listing(C2))
    with pytest.raises(ValueError, match="matrix entries must all be integers"):
        recover_listing(matrix, C2)
    with pytest.raises(ValueError, match="coefficients must all be integers"):
        GroupRingElement(C2, [value, 2])


def test_whole_float_inputs_are_integers():
    matrix = [[1.0, 2.0], [2.0, 1.0]]
    assert is_rg_matrix(matrix, C2, natural_listing(C2))
    assert recover_listing(matrix, C2) == natural_listing(C2)
    assert not is_rg_matrix([[1.0, 2.0], [3.0, 1.0]], C2, natural_listing(C2))
    elem = GroupRingElement(C2, [1.0, -2.0])
    assert elem.coeffs.dtype == np.int64
    assert elem.coeffs.tolist() == [1, -2]
