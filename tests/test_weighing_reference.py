import itertools
import time

import numpy as np
import pytest

from circhad.hadamard import _autocorrelation
from weighing_reference import zero_autocorrelation_weights

# {v: {weight: rows}} of the non-zero ternary rows of length v with zero PAF and with
# zero NAF, from an earlier brute force over all 3^v rows; v = 11 to 14 take about
# 10 s together, so they are left to `python tests/weighing_reference.py 11 14`
ZERO_PAF = {
    6: {1: 12, 4: 24},
    7: {1: 14, 4: 28},
    8: {1: 16, 4: 48},
    9: {1: 18},
    10: {1: 20, 4: 80},
}
ZERO_NAF = {
    6: {1: 12, 2: 12, 5: 24},
    7: {1: 14, 4: 28},
    8: {1: 16, 2: 16, 3: 32, 7: 64},
    9: {1: 18},
    10: {1: 20, 2: 20, 9: 40},
}


def test_weighing_row_counts_are_pinned():
    start = time.perf_counter()
    for wrap, table in ((1, ZERO_PAF), (-1, ZERO_NAF)):
        for v, counts in table.items():
            assert zero_autocorrelation_weights(v, wrap) == counts, (v, wrap)
    # the full-weight rows of length 4 are the eight circulant Hadamard rows
    assert zero_autocorrelation_weights(4, 1)[4] == 8
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("wrap", [1, -1])
@pytest.mark.parametrize("v", [1, 4, 6, 7])
def test_weighing_reference_agrees_with_the_autocorrelation(v, wrap):
    # each row through circhad's autocorrelation, one at a time
    counts = {}
    for row in itertools.product((-1, 0, 1), repeat=v):
        x = np.array(row)
        if x.any() and not _autocorrelation(x, wrap)[1:].any():
            counts[np.count_nonzero(x)] = counts.get(np.count_nonzero(x), 0) + 1
    assert zero_autocorrelation_weights(v, wrap) == counts

