from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cfedit.errors import is_number


@pytest.mark.parametrize(
    "value, real, integral",
    [
        (3, True, True),
        (np.int64(3), True, True),
        (2.5, True, False),
        (3.0, True, False),
        (np.float64(2.5), True, False),
        (Fraction(1, 2), True, False),
        (True, False, False),
        (np.bool_(True), False, False),
        (Decimal("1"), False, False),
        ("1", False, False),
        (None, False, False),
    ],
)
def test_accepted_and_rejected_values(value, real, integral):
    assert is_number(value) is real
    assert is_number(value, integer=True) is integral
