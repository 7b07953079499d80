"""Reference constructions that only the tests use.

`whitney_char_poly` is the independent oracle that the lattice-based
`char_poly` is compared against; `arr_product` builds product arrangements
for the multiplicativity test.
"""

from fractions import Fraction

from conevol.arrangement import Arrangement, Polynomial, arrangement
from conevol.exactlin import rref


def whitney_char_poly(a: Arrangement) -> Polynomial:
    """Independent oracle: chi(t) = sum over subarrangements B of
    (-1)^{|B|} t^{d - rank(B)} (exponential in n; test sizes only)."""
    n = len(a.normals)
    coeffs = [0] * (a.d + 1)
    for mask in range(1 << n):
        rows = [a.normals[i] for i in range(n) if mask >> i & 1]
        r = len(rref(rows))
        coeffs[a.d - r] += (-1) ** bin(mask).count("1")
    return Polynomial.of(coeffs)


def arr_product(a: Arrangement, b: Arrangement) -> Arrangement:
    """Product arrangement in R^(d_a + d_b)."""
    rows = [tuple(n) + (Fraction(0),) * b.d for n in a.normals]
    rows += [(Fraction(0),) * a.d + tuple(n) for n in b.normals]
    return arrangement(rows, a.d + b.d)
