import pytest

from convdef.fields import MAX_EXPONENT, QQ


def test_rational_exponent_at_the_ceiling_parses():
    assert QQ.parse("1e4300") == 10**MAX_EXPONENT
    assert QQ.parse("-2.5E-4300") == QQ.parse("-5/2") / 10**MAX_EXPONENT
    assert QQ.parse("3e0004300") == 3 * 10**MAX_EXPONENT


@pytest.mark.parametrize("literal", ["1e4301", "1e-4301", "1e1000000000", "1e" + "9" * 5000, "7E+1_0000"])
def test_rational_exponent_beyond_the_ceiling_is_refused(literal):
    with pytest.raises(ValueError, match="exponent"):
        QQ.parse(literal)
