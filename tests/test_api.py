import types

import circhad

# every public name that `import circhad` gives, modules aside; a name is added or
# dropped here in the same change that adds or drops it
PUBLIC_NAMES = [
    "BlockSystem", "CapacityError", "ConditionsReport", "FormatError", "GramReport", "Group",
    "GroupRingElement", "KERNEL_BACKEND", "Listing", "MatchReport", "MatrixDocument",
    "NamedConstruction", "SearchConfig", "SearchResult", "SignMatrix",
    "admissible_negative_counts", "assemble_block_matrix", "block_system", "c2c2_matrix",
    "c2c8_matrix", "circulant_c4", "circulant_from_row", "circulant_sign_matrix",
    "conditions_report", "cyclic_group", "direct_product", "emit_matrix_document",
    "emit_report", "gram", "group_by_name", "is_hadamard", "is_regular", "is_rg_matrix",
    "kronecker_extend", "matching_report", "natural_listing", "paf", "paf_is_flat",
    "paired_listing", "parse_matrix_document", "quaternion_c2_matrix", "quaternion_group",
    "recover_listing", "relist", "rg_matrix", "rg_sign_matrix", "row_from_blocks", "search",
    "with_recovered_listing",
]


def test_public_api_is_pinned():
    names = sorted(name for name, value in vars(circhad).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
