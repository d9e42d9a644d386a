import pytest

import linksgould
import linksgould.cli


def test_the_api_evaluates_through_the_cli_pipeline():
    assert linksgould.evaluate is linksgould.cli.evaluate


def test_evaluate_accepts_text_and_words():
    poly = linksgould.evaluate("1 1 1")
    assert linksgould.to_compact(poly) == [{0: 1, 2: 2}, {1: -1, 3: -1}, {2: 1}]
    braid = linksgould.parse_braid("1 1 1")
    assert linksgould.evaluate(braid) == poly


def test_evaluate_applies_strings_to_a_parsed_word_as_to_text():
    from linksgould.braid import BraidSyntaxError

    braid = linksgould.parse_braid("1 1 1")
    # a third string is free, so the closure is split and its value is 0
    assert linksgould.evaluate(braid, strings=3) == linksgould.evaluate("1 1 1", strings=3) == {}
    assert linksgould.evaluate(braid, strings=2) == linksgould.evaluate("1 1 1")
    for word in (braid, "1 1 1"):
        with pytest.raises(BraidSyntaxError, match="--strings 1 below inferred minimum 2"):
            linksgould.evaluate(word, strings=1)


def test_evaluate_empty_words():
    assert linksgould.evaluate("", strings=1) == {(0, 0): 1}
    assert linksgould.evaluate("", strings=2) == {}


def test_evaluate_respects_cap():
    from linksgould.engine import SizeCapExceeded

    with pytest.raises(SizeCapExceeded):
        linksgould.evaluate("1", strings=6)
    assert linksgould.evaluate("1", strings=6, max_size=4**12) == {}


def test_evaluate_refuses_a_value_that_breaks_the_parity(monkeypatch):
    from linksgould.invariant import StructureError
    from linksgould.ring import LaurentQP

    # q^1 P^0: every value's terms have q- and P-exponents of one parity
    monkeypatch.setattr(linksgould.cli, "evaluate_raw", lambda *a, **k: LaurentQP({(2, 0): 1}))
    with pytest.raises(StructureError, match="different parity at q\\^1 P\\^0"):
        linksgould.evaluate("1 1 1")


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        linksgould.nothing
