"""Explicit Hadamard group-ring matrices and their Kronecker extensions.

The two 16x16 matrices are embedded as literal sign rows, transcribed
character-for-character from their source displays and guarded by a checksum;
there is no generative rule for them, so transcription fidelity is the contract.
The Kronecker product of two Hadamard group-ring matrices is again one, over the
direct product group with the lexicographic product listing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import Group, Listing, cyclic_group, direct_product, natural_listing, quaternion_group
from .groupring import SignMatrix, circulant_sign_matrix
from .signs import from_text

# fmt: off
_C2C8_TEXT = """\
++ +- ++ +- ++ +- -- -+
++ -+ ++ -+ ++ -+ -- +-
-+ ++ +- ++ +- ++ +- --
+- ++ -+ ++ -+ ++ -+ --
-- -+ ++ +- ++ +- ++ +-
-- +- ++ -+ ++ -+ ++ -+
+- -- -+ ++ +- ++ +- ++
-+ -- +- ++ -+ ++ -+ ++
++ +- -- -+ ++ +- ++ +-
++ -+ -- +- ++ -+ ++ -+
+- ++ +- -- -+ ++ +- ++
-+ ++ -+ -- +- ++ -+ ++
++ +- ++ +- -- -+ ++ +-
++ -+ ++ -+ -- +- ++ -+
+- ++ +- ++ +- -- -+ ++
-+ ++ -+ ++ -+ -- +- ++"""

_Q8C2_TEXT = """\
++ +- ++ +- ++ -+ -- +-
++ -+ ++ -+ ++ +- -- -+
-+ ++ -+ ++ +- ++ -+ --
+- ++ +- ++ -+ ++ +- --
++ +- ++ -+ -- +- ++ +-
++ -+ ++ +- -- -+ ++ -+
-+ ++ +- ++ -+ -- -+ ++
+- ++ -+ ++ +- -- +- ++
++ -+ -- +- ++ +- ++ +-
++ +- -- -+ ++ -+ ++ -+
+- ++ -+ -- -+ ++ -+ ++
-+ ++ +- -- +- ++ +- ++
-- +- ++ +- ++ +- ++ -+
-- -+ ++ -+ ++ -+ ++ +-
-+ -- -+ ++ -+ ++ +- ++
+- -- +- ++ +- ++ -+ ++"""
# fmt: on

_C2C8_SHA256 = "a6d1fa90bbd6d27f24dcffdd65887ccd5cc3f5543b47253582fc9d795603ebfe"
_Q8C2_SHA256 = "5109ab6c1c6b6066564ea6b2e54a2a8546e1feae31487c5e84b33f5261c953b2"


def _parse_display(text: str, expected_sha: str) -> np.ndarray:
    import hashlib  # here, as it loads OpenSSL, which only the 16x16 transcriptions need

    canonical = "\n".join(line.replace(" ", "") for line in text.splitlines())
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    if digest != expected_sha:
        raise RuntimeError(f"embedded matrix data corrupted (sha256 {digest})")
    lines = canonical.splitlines()
    return from_text("".join(lines)).reshape(len(lines), -1)


@dataclass
class NamedConstruction:
    name: str
    group: Group
    matrix: SignMatrix
    listing: Listing | None  # None until recovered for the 16x16 transcriptions

    @property
    def size(self) -> int:
        return self.matrix.size


def circulant_c4() -> NamedConstruction:
    """The 4x4 circulant Hadamard matrix with first row (+,+,+,-) over C4."""
    group = cyclic_group(4)
    return NamedConstruction(
        name="c4",
        group=group,
        matrix=circulant_sign_matrix([1, 1, 1, -1]),
        listing=natural_listing(group),
    )


def c2c2_matrix() -> NamedConstruction:
    """4x4 Hadamard matrix over the Klein group; RG under the natural listing."""
    entries = np.array(
        [[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]], dtype=np.int8
    )
    group = direct_product(cyclic_group(2), cyclic_group(2))
    return NamedConstruction(
        name="c2c2",
        group=group,
        matrix=SignMatrix(entries),
        listing=natural_listing(group),
    )


def c2c8_matrix() -> NamedConstruction:
    """The 16x16 almost-circulant Hadamard matrix over C2 x C8 (literal data)."""
    group = direct_product(cyclic_group(2), cyclic_group(8))
    entries = _parse_display(_C2C8_TEXT, _C2C8_SHA256)
    return NamedConstruction(
        name="c2c8",
        group=group,
        matrix=SignMatrix(entries),
        listing=None,
    )


def quaternion_c2_matrix() -> NamedConstruction:
    """The 16x16 Hadamard matrix over the non-commutative Q8 x C2 (literal data)."""
    group = direct_product(quaternion_group(), cyclic_group(2))
    entries = _parse_display(_Q8C2_TEXT, _Q8C2_SHA256)
    return NamedConstruction(
        name="q8c2",
        group=group,
        matrix=SignMatrix(entries),
        listing=None,
    )


def trivial_construction() -> NamedConstruction:
    """Order-1 Hadamard matrix (1) over the trivial group."""
    group = cyclic_group(1)
    return NamedConstruction(
        name="trivial",
        group=group,
        matrix=SignMatrix(np.array([[1]], dtype=np.int8)),
        listing=natural_listing(group),
    )


FAMILIES = {
    "c4": circulant_c4,
    "c2c2": c2c2_matrix,
    "c2c8": c2c8_matrix,
    "q8c2": quaternion_c2_matrix,
    "trivial": trivial_construction,
}


def with_recovered_listing(construction: NamedConstruction) -> NamedConstruction:
    """Attach a listing found by backtracking when none is known yet."""
    if construction.listing is not None:
        return construction
    from .groupring import recover_listing

    listing = recover_listing(construction.matrix, construction.group)
    if listing is None:
        raise ValueError(
            f"no listing over {construction.group.name} makes {construction.name!r} an RG-matrix"
        )
    return NamedConstruction(
        name=construction.name,
        group=construction.group,
        matrix=construction.matrix,
        listing=listing,
    )


def kronecker_extend(a: NamedConstruction, b: NamedConstruction) -> NamedConstruction:
    """Kronecker (block-tensor) product over the direct product group.

    Both inputs must carry listings; the output uses the lexicographic product
    listing (left factor major) and is an RG-matrix whenever both inputs are.
    Hadamard inputs give a Hadamard output of the product size.
    """
    for part in (a, b):
        if part.listing is None:
            raise ValueError(
                f"construction {part.name!r} has no known listing; recover one first"
            )
    group = direct_product(a.group, b.group)
    order_b = b.group.order
    perm = [pa * order_b + pb for pa in a.listing.perm for pb in b.listing.perm]
    return NamedConstruction(
        name=f"{a.name}(x){b.name}",
        group=group,
        matrix=SignMatrix(np.kron(a.matrix.entries, b.matrix.entries)),
        listing=Listing(group, perm),
    )
