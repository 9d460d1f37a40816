"""Group-ring matrices, exact Hadamard verification, block analysis and search
for circulant Hadamard rows."""

from .blocks import (
    BlockSystem,
    ConditionsReport,
    MatchReport,
    assemble_block_matrix,
    block_system,
    conditions_report,
    matching_report,
    row_from_blocks,
)
from .constructions import (
    NamedConstruction,
    c2c2_matrix,
    c2c8_matrix,
    circulant_c4,
    kronecker_extend,
    quaternion_c2_matrix,
    with_recovered_listing,
)
from .errors import CapacityError, FormatError
from .groups import (
    Group,
    Listing,
    cyclic_group,
    direct_product,
    group_by_name,
    natural_listing,
    paired_listing,
    quaternion_group,
)
from .groupring import (
    GroupRingElement,
    SignMatrix,
    circulant_from_row,
    circulant_sign_matrix,
    is_rg_matrix,
    recover_listing,
    relist,
    rg_matrix,
    rg_sign_matrix,
)
from .hadamard import (
    GramReport,
    admissible_negative_counts,
    gram,
    is_hadamard,
    is_regular,
    paf,
    paf_is_flat,
)
from .matrixio import (
    MatrixDocument,
    emit_matrix_document,
    emit_report,
    parse_matrix_document,
)
from .searchengine import KERNEL_BACKEND, SearchConfig, SearchResult, search

__version__ = "0.1.0"
