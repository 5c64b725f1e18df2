import math
from fractions import Fraction

import pytest

from diocurves.errors import FactorizationIncomplete, ParseError, ZeroInput
from diocurves.rationals import (
    QQ,
    format_rational,
    is_perfect_square,
    log_int,
    naive_height,
    parse_rational,
    square_class,
    sqrt_int,
)


def test_parse_format_round_trip():
    for text, want in [
        ("3", QQ(3)),
        ("-3", QQ(-3)),
        ("22/7", QQ(22, 7)),
        (" -22 / 7 ", QQ(-22, 7)),
        ("0", QQ(0)),
        ("4/6", QQ(2, 3)),
    ]:
        q = parse_rational(text)
        assert q == want
        assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("bad", ["", "1.5", "3/0", "1/2/3", "a", "1e3", "--4", "+4"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_format_is_canonical():
    assert format_rational(QQ(-6, 4)) == "-3/2"
    assert format_rational(QQ(5)) == "5"
    assert format_rational(QQ(0)) == "0"


def test_log_int_matches_math_log():
    for n in [1, 2, 97, 10**6, 3**41]:
        assert math.isclose(log_int(n), math.log(n), rel_tol=1e-12)


def test_log_int_huge():
    # 10^5000 is far beyond float range; answer must still be accurate
    n = 10 ** 5000
    assert math.isclose(log_int(n), 5000 * math.log(10), rel_tol=1e-12)
    with pytest.raises(ZeroInput):
        log_int(0)


def test_naive_height():
    assert naive_height(QQ(0)) == 0.0
    assert naive_height(QQ(1)) == 0.0
    assert math.isclose(naive_height(QQ(-3, 7)), math.log(7))
    assert math.isclose(naive_height(QQ(22, 7)), math.log(22))


def test_sqrt_int():
    assert sqrt_int(0) == 0
    assert sqrt_int(49) == 7
    assert sqrt_int(50) is None
    big = (10**50 + 151) ** 2
    assert sqrt_int(big) == 10**50 + 151


def test_is_perfect_square():
    assert is_perfect_square(QQ(9, 4)) == QQ(3, 2)
    assert is_perfect_square(QQ(0)) == 0
    assert is_perfect_square(QQ(2)) is None
    assert is_perfect_square(QQ(-9, 4)) is None
    assert is_perfect_square(QQ(10**80)) == 10**40


def test_square_class_basics():
    assert square_class(QQ(1)) == 1
    assert square_class(QQ(4)) == 1
    assert square_class(QQ(18)) == 2
    assert square_class(QQ(-4, 9)) == -1
    assert square_class(QQ(50)) == 2
    assert square_class(QQ(-3, 7)) == -21
    with pytest.raises(ZeroInput):
        square_class(QQ(0))


def test_square_class_is_multiplicative_mod_squares():
    vals = [QQ(6), QQ(-10, 3), QQ(49, 8), QQ(15)]
    for a in vals:
        for b in vals:
            ca, cb, cab = square_class(a), square_class(b), square_class(a * b)
            assert square_class(QQ(ca * cb)) == cab


def test_square_class_square_cofactor_is_tolerated():
    # residual cofactor after the budget is a perfect square: class is still known
    p = 2305843009213693951
    q = 618970019642690137449562111
    n = QQ(2) * (QQ(p) * q) ** 2
    assert square_class(n, budget=0) == 2


def test_square_class_incomplete_raises_with_partial():
    p = 2305843009213693951
    q = 618970019642690137449562111
    with pytest.raises(FactorizationIncomplete) as ei:
        square_class(QQ(p * q), budget=0)
    assert ei.value.partial is not None
    assert ei.value.partial.cofactor == p * q
