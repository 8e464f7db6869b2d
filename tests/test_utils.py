import numpy as np
import pytest

from goldfishlab.utils import upper_indices


@pytest.mark.parametrize("n", [1, 2, 5])
def test_upper_indices_are_shared_and_read_only(n):
    iu, ju = upper_indices(n)
    assert all(np.array_equal(a, b) for a, b in zip((iu, ju), np.triu_indices(n, 1)))
    assert upper_indices(n)[0] is iu
    for array in (iu, ju):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
