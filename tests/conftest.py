from fractions import Fraction

import pytest


def _significant_bits(f: Fraction) -> int:
    """Mantissa bits of a dyadic f = m * 2^e (m odd); for any other f, the
    larger of its numerator's and its denominator's bit lengths."""
    n, d = abs(f.numerator), f.denominator
    if d & (d - 1):
        return max(n.bit_length(), d.bit_length())
    return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0


@pytest.fixture(scope="session")
def significant_bits():
    return _significant_bits
