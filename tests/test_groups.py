import numpy as np
import pytest

from circhad import (
    CapacityError,
    Group,
    Listing,
    cyclic_group,
    direct_product,
    group_by_name,
    natural_listing,
    paired_listing,
    quaternion_group,
)
from circhad import groups
from circhad.groups import is_cyclic_table


def test_trivial_group():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.mul_table.tolist() == [[0]]


def test_cyclic_four_inverse():
    g = cyclic_group(4)
    assert g.mul(1, 3) == 0
    assert g.inv(1) == 3


def test_cyclic_eight_matches_modular_addition():
    g = cyclic_group(8)
    for a in range(8):
        for b in range(8):
            assert g.mul(a, b) == (a + b) % 8
    assert g.mul(5, 6) == (5 + 6) % 8


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        cyclic_group(0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: cyclic_group(1),
        lambda: cyclic_group(4),
        lambda: cyclic_group(7),
        lambda: cyclic_group(16),
        lambda: quaternion_group(),
        lambda: direct_product(cyclic_group(2), cyclic_group(2)),
        lambda: direct_product(cyclic_group(2), cyclic_group(8)),
        lambda: direct_product(quaternion_group(), cyclic_group(2)),
        lambda: direct_product(cyclic_group(4), cyclic_group(4)),
        lambda: direct_product(direct_product(cyclic_group(2), cyclic_group(8)), cyclic_group(4)),
    ],
)
def test_group_axioms_hold(build):
    # Latin square, identity at 0, inverses and associativity on the full table.
    build().validate()


def test_klein_group_every_element_self_inverse():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    assert g.order == 4
    for x in range(4):
        assert g.mul(x, x) == 0


def test_c2_c8_product_element_orders():
    g = direct_product(cyclic_group(2), cyclic_group(8))
    assert g.order == 16
    # element (1,1) sits at index 1*8+1 = 9 and must have order lcm(2,8) = 8
    x, k = 9, 1
    acc = x
    while acc != 0:
        acc = g.mul(acc, x)
        k += 1
    assert k == 8


def test_element_orders_match_element_order():
    for name in ("C1", "C12", "C2xC8", "Q8xC2", "C2xC2xC2xC2", "Q8xC4xC2"):
        g = group_by_name(name)
        assert g.element_orders().tolist() == [g.element_order(a) for a in range(g.order)]
    # a Latin square in which the powers of 1 cycle through 1, 2 and never reach 0
    bad = Group("bad", [[0, 1, 2], [1, 2, 1], [2, 1, 2]], inv_table=[0, 0, 0])
    for orders in (bad.element_orders, lambda: bad.element_order(1)):
        with pytest.raises(ValueError, match="not a group"):
            orders()


def test_quaternion_defining_relations():
    q = quaternion_group()
    one, minus_one, i, j, k = 0, 1, 2, 4, 6
    assert q.mul(i, j) == k
    assert q.mul(i, i) == minus_one
    assert q.mul(j, j) == minus_one
    assert q.mul(k, k) == minus_one
    assert q.mul(q.mul(i, j), k) == minus_one  # ijk = -1
    assert q.mul(j, i) == q.inv(k)  # ji = -k
    assert q.mul(one, i) == i


def test_quaternion_unique_involution():
    q = quaternion_group()
    involutions = [x for x in range(1, 8) if q.mul(x, x) == 0]
    assert involutions == [1]


def test_quaternion_product_noncommutative():
    g = direct_product(quaternion_group(), cyclic_group(2))
    assert g.order == 16
    asymmetric = any(
        g.mul(a, b) != g.mul(b, a) for a in range(g.order) for b in range(g.order)
    )
    assert asymmetric
    assert not g.is_abelian


def test_abelian_products_have_symmetric_tables():
    g = direct_product(cyclic_group(3), cyclic_group(5))
    assert g.is_abelian
    assert np.array_equal(g.mul_table, g.mul_table.T)


def test_product_order_multiplies():
    g = direct_product(cyclic_group(6), cyclic_group(7))
    assert g.order == 42


def test_product_capacity_limit():
    with pytest.raises(CapacityError):
        direct_product(cyclic_group(64), cyclic_group(32))
    # int16 holds every index up to the cap, and no table beyond it is taken
    with pytest.raises(CapacityError):
        Group("C1025", (np.arange(1025)[:, None] + np.arange(1025)) % 1025)


def test_group_equals_itself_without_comparing_tables(monkeypatch):
    g = group_by_name("C4xC4xC4")

    def no_table_comparison(*args, **kwargs):
        raise AssertionError("compared two tables")

    monkeypatch.setattr(np, "array_equal", no_table_comparison)
    assert g == g
    assert not g != g
    assert natural_listing(g).group == g
    monkeypatch.undo()
    # tables built separately still compare by content
    same = direct_product(cyclic_group(4), group_by_name("C4xC4"))
    assert same is not g and same == g and not same != g
    assert g != cyclic_group(64)


def test_paired_listing_values():
    assert paired_listing(4).perm == (0, 2, 1, 3)
    assert paired_listing(8).perm == (0, 4, 1, 5, 2, 6, 3, 7)
    assert paired_listing(4).perm[0] == 0


@pytest.mark.parametrize("m", [4, 8, 12, 16, 24, 32])
def test_paired_listing_is_permutation(m):
    perm = paired_listing(m).perm
    assert sorted(perm) == list(range(m))
    n = m // 4
    for k in range(2 * n):
        assert perm[2 * k] == k
        assert perm[2 * k + 1] == 2 * n + k


@pytest.mark.parametrize("m", [1, 2, 3, 6, 10])
def test_paired_listing_rejects_bad_orders(m):
    with pytest.raises(ValueError):
        paired_listing(m)


def test_listing_requires_permutation():
    g = cyclic_group(4)
    with pytest.raises(ValueError):
        Listing(g, [0, 1, 2, 2])
    with pytest.raises(ValueError):
        Listing(g, [0, 1, 2])


def test_listing_position_lookup():
    listing = paired_listing(8)
    for position, element in enumerate(listing.perm):
        assert listing.position_of(element) == position


def test_group_by_name():
    assert group_by_name("C4").order == 4
    assert group_by_name("C2xC8").name == "C2xC8"
    assert group_by_name("Q8xC2").order == 16
    assert group_by_name("C2xC8xC4").order == 64
    with pytest.raises(ValueError):
        group_by_name("D8")


def test_natural_listing_is_identity():
    g = cyclic_group(6)
    assert natural_listing(g).perm == tuple(range(6))


def test_direct_product_table_is_int16_and_lexicographic():
    g = direct_product(cyclic_group(4), quaternion_group())
    assert g.mul_table.dtype == g.inv_table.dtype == np.int16
    for h in (cyclic_group(1024), quaternion_group(), group_by_name("C4xC4xC4xC4xC4")):
        assert h.mul_table.dtype == h.inv_table.dtype == np.int16
    q = quaternion_group()
    for a in range(32):
        for b in range(32):
            assert g.mul(a, b) == ((a // 8 + b // 8) % 4) * 8 + q.mul(a % 8, b % 8)
    g.validate(check_associativity=True)


def eager_product(name: str) -> Group:
    """The named product's table built at once, digit by digit of the left-major index."""
    factors = [group_by_name(part) for part in name.split("x")]
    n = int(np.prod([f.order for f in factors]))
    idx, stride = np.arange(n), n
    mul, inv = np.zeros((n, n), dtype=np.int64), np.zeros(n, dtype=np.int64)
    for f in factors:
        stride //= f.order
        digit = idx // stride % f.order
        mul = mul * f.order + f.mul_table[digit[:, None], digit[None, :]]
        inv = inv * f.order + f.inv_table[digit]
    return Group(name, mul, inv)


@pytest.mark.parametrize("name", ["C2xC8xC4", "Q8xC2", "C4xC4xC4xC4xC4"])
def test_product_tables_are_built_once_when_first_read(name, monkeypatch):
    builds = []

    def counted(g, h):
        builds.append(f"{g.name}x{h.name}")
        return product_tables(g, h)

    product_tables = groups._product_tables
    monkeypatch.setattr(groups, "_product_tables", counted)
    g = group_by_name(name)
    assert (g.name, builds) == (name, [])
    mul = g.mul_table
    built = len(builds)
    assert builds.count(name) == 1
    assert g.mul_table is mul and g.inv_table is g.inv_table
    assert len(builds) == built
    eager = eager_product(name)
    assert np.array_equal(mul, eager.mul_table) and np.array_equal(g.inv_table, eager.inv_table)
    assert mul.dtype == g.inv_table.dtype == np.int16
    assert not mul.flags.writeable and not g.inv_table.flags.writeable


@pytest.mark.parametrize("name, cyclic", [
    ("C1", True), ("C4", True), ("C16", True), ("C1xC16", True), ("C16xC1", True),
    ("C2xC8", False), ("C4xC4", False), ("Q8xC2", False), ("C2xC2", False), ("Q8", False),
])
def test_is_cyclic_table(name, cyclic):
    group = group_by_name(name)
    assert is_cyclic_table(group) == cyclic
    assert is_cyclic_table(group) == (group == cyclic_group(group.order))


def test_paired_listing_over_a_given_table():
    c16 = group_by_name("C1xC16")
    listing = paired_listing(16, c16)
    assert listing.group is c16
    assert listing.perm == paired_listing(16).perm
    with pytest.raises(ValueError, match="paired listing needs the table of C16"):
        paired_listing(16, group_by_name("C2xC8"))
    with pytest.raises(ValueError):
        paired_listing(16, cyclic_group(8))
