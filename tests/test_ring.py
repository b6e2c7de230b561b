import random
from fractions import Fraction

import pytest

from czswap.poly import MultiPoly
from czswap.ring import INV_SQRT2, ONE, RingScalar


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_scalar(rng):
    return RingScalar(*(rand_fraction(rng) for _ in range(4)))


def rand_of_kind(rng, kind):
    """A random scalar whose components outside ``kind`` are zero."""
    ra, rb, ia, ib = (rand_fraction(rng) for _ in range(4))
    if kind == "rational":
        return RingScalar(ra)
    if kind == "gaussian":
        return RingScalar(ra, 0, ia)
    if kind == "real_sqrt2":
        return RingScalar(ra, rb)
    if kind == "imag_sqrt2":
        return RingScalar(0, 0, ia, ib)
    return RingScalar(ra, rb, ia, ib)


KINDS = ("rational", "gaussian", "real_sqrt2", "imag_sqrt2", "mixed")


def general_product(x, y):
    """The 16-term product formula, with no shortcuts."""
    a, b, c, d = x.ra, x.rb, x.ia, x.ib
    e, f, g, h = y.ra, y.rb, y.ia, y.ib
    return (
        a * e + 2 * b * f - c * g - 2 * d * h,
        a * f + b * e - c * h - d * g,
        a * g + 2 * b * h + c * e + 2 * d * f,
        a * h + b * g + c * f + d * e,
    )


def components(z):
    return (z.ra, z.rb, z.ia, z.ib)


def test_products_of_every_kind_pairing_match_general_formula():
    rng = random.Random(17)
    for left in KINDS:
        for right in KINDS:
            for _ in range(30):
                x, y = rand_of_kind(rng, left), rand_of_kind(rng, right)
                want = general_product(x, y)
                assert components(x * y) == want, (left, right, x, y)
                assert components(y * x) == general_product(y, x)


def test_products_with_int_and_fraction_operands():
    rng = random.Random(19)
    for kind in KINDS:
        for _ in range(30):
            z = rand_of_kind(rng, kind)
            for plain in (rng.randint(-9, 9), rand_fraction(rng)):
                want = general_product(z, RingScalar(plain))
                assert components(z * plain) == want, (kind, z, plain)
                assert components(plain * z) == want, (kind, z, plain)


def test_basic_identities():
    s = RingScalar.sqrt2()
    assert s * s == RingScalar(2)
    i = RingScalar.i()
    assert i * i == RingScalar(-1)
    assert INV_SQRT2 * INV_SQRT2 == RingScalar(Fraction(1, 2))
    assert INV_SQRT2 * RingScalar.sqrt2() == ONE


def test_inv_sqrt2_pow():
    for m in range(8):
        v = RingScalar.inv_sqrt2_pow(m)
        assert v * RingScalar.sqrt2() ** m == ONE


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_division_and_norm():
    rng = random.Random(11)
    for _ in range(100):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        if b.is_zero():
            continue
        q = a / b
        assert q * b == a
    with pytest.raises(ZeroDivisionError):
        ONE / RingScalar(0)


def test_conjugate_norm_is_sqrt2_free_after_second_step():
    # z * conj(z) is real (A + B*sqrt2); multiplying by its sqrt2-conjugate
    # must land in the rationals.
    rng = random.Random(13)
    for _ in range(100):
        z = rand_scalar(rng)
        real = z * z.conjugate()
        assert real.ia == 0 and real.ib == 0
        rational = real * RingScalar(real.ra, -real.rb)
        assert rational.as_fraction() is not None


def test_str_rendering():
    assert str(RingScalar(Fraction(3, 2))) == "3/2"
    assert str(RingScalar(0, Fraction(1, 2))) == "1/2*sqrt2"
    assert str(RingScalar(1, 0, 1, 0)) == "1 + i*(1)"
    assert str(RingScalar(0)) == "0"


def test_complex_conversion():
    z = RingScalar(1, 1, 0, 0)
    assert abs(complex(z) - (1 + 2 ** 0.5)) < 1e-12


def test_hash_equality_consistency():
    assert hash(RingScalar(2)) == hash(RingScalar(Fraction(2)))
    assert RingScalar(2) == 2
    assert RingScalar(1, 1) != RingScalar(1)


def test_equal_values_from_different_paths_compare_and_hash_equal():
    third, sixth = RingScalar(Fraction(1, 3)), RingScalar(Fraction(1, 6))
    pairs = [
        (sixth + third, RingScalar(Fraction(1, 2))),
        (third * 3, ONE),
        (INV_SQRT2 * RingScalar.sqrt2(), ONE),
    ]
    rng = random.Random(23)
    for _ in range(100):
        x, y = rand_scalar(rng), rand_scalar(rng)
        if y:
            pairs.append((x / y * y, x))
    for got, want in pairs:
        assert got == want and hash(got) == hash(want), (got, want)
        assert {want: 1}[got] == 1


def test_rational_values_hash_like_int_and_fraction():
    for q in (0, 1, -1, 7, -12, 2 ** 70, Fraction(-3, 4), Fraction(-22, 7), Fraction(-1, 2 ** 65)):
        # the same value directly and through a product, a sum and a quotient
        for x in (RingScalar(q), RingScalar(q) * 6 / 6, RingScalar(q) + Fraction(1, 3) - Fraction(1, 3)):
            assert x == q and hash(x) == hash(q), (x, q)
            assert {q: 1}[x] == 1


def test_components_read_back_as_fractions():
    rng = random.Random(29)
    for _ in range(100):
        x = rand_scalar(rng) * rand_scalar(rng) + rand_scalar(rng)
        parts = (x.ra, x.rb, x.ia, x.ib)
        assert all(type(p) is Fraction for p in parts), parts
        # the value rebuilt from its components is the same scalar
        assert RingScalar(*parts) == x and hash(RingScalar(*parts)) == hash(x)


def test_complex_is_the_sum_of_correctly_rounded_components():
    rng = random.Random(31)
    big = [rng.randrange(2 ** 60, 2 ** 90) * rng.choice((1, -1)) for _ in range(40)]
    values = [rand_scalar(rng) for _ in range(100)]
    for i in range(0, 40, 4):
        den = rng.randrange(3, 2 ** 64, 2)
        values.append(RingScalar(*(Fraction(n, den) for n in big[i:i + 4])))
    sqrt2 = 2 ** 0.5
    for x in values:
        y = x * 3 / 3
        assert y == x
        want = complex(float(x.ra) + float(x.rb) * sqrt2, float(x.ia) + float(x.ib) * sqrt2)
        assert complex(y) == want and complex(x) == want, x


def test_mixed_operands_defer_to_multipoly():
    p = MultiPoly.variable(1, 0, 0)
    two = RingScalar(2)
    assert two + p == p + 2
    assert two - p == -(p - 2)
    assert two * p == p * 2
    for op in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__eq__"):
        assert getattr(two, op)(p) is NotImplemented, op
    with pytest.raises(TypeError):
        two / p
