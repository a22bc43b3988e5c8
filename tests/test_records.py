"""The package's records: immutable, equal and hashed by their fields,
printed as the frozen dataclasses they replace printed."""

import pytest

from goldenbeta.algebra import ODD, FieldElem, make_params, parse_field
from goldenbeta.expand import Classification, classify, enumerate_prefixes
from goldenbeta.fseq import FDecomposition, decompose_F
from goldenbeta.rewrite import RewriteTrace, apply_rule
from goldenbeta.words import DigitWord, EvPeriodicWord, parse_word

P1 = make_params(1, ODD)


def records():
    """Two equal but distinct instances of each record, built afresh, and
    the fields its equality reads."""
    x = parse_field("1/3", P1)
    return {
        "Params": (make_params(1, ODD), make_params(1, ODD), ("k", "parity", "m", "D")),
        "FieldElem": (FieldElem(P1, 2, 4, 6), FieldElem(P1, 1, 2, 3), ("params", "p", "q", "r")),
        "DigitWord": (DigitWord(0, (1, 2)), DigitWord(0, [1, 2]), ("int_part", "digits")),
        "EvPeriodicWord": (EvPeriodicWord(0, (1, 0, 3), (0, 3)),
                           EvPeriodicWord(0, (1,), (0, 3, 0, 3)),
                           ("int_part", "preperiod", "period")),
        "FDecomposition": (decompose_F(1, 10), decompose_F(1, 10), ("n", "coeffs")),
        "RewriteTrace": (*(apply_rule("carry", P1, parse_word("0.3,0,3", P1)) for _ in "ab"),
                         ("rule", "input", "output", "steps", "value")),
        "Classification": (classify(x, P1), classify(x, P1), ("verdict", "certificate")),
        "PrefixTree": (enumerate_prefixes(x, 5, P1), enumerate_prefixes(x, 5, P1),
                       ("x", "depth", "counts")),
    }


@pytest.mark.parametrize("name", list(records()))
def test_record_refuses_assignment(name):
    a, _, fields = records()[name]
    field = fields[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        a.extra = 1  # no new attributes either
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) == before


@pytest.mark.parametrize("name", list(records()))
def test_record_equality_and_hash(name):
    a, b, fields = records()[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object() and a != tuple(getattr(a, f) for f in fields)


def test_field_elem_and_params_are_dict_keys():
    a, b = FieldElem(P1, 2, 4, 6), FieldElem(P1, 1, 2, 3)
    assert {a: "x"}[b] == "x"
    assert {make_params(2, ODD): "y"}[make_params(2, ODD)] == "y"
    assert FieldElem(make_params(1, ODD), 1, 0) == P1.beta  # equal systems, distinct objects
    assert FieldElem(make_params(2, ODD), 1, 0) != P1.beta
    assert make_params(1, ODD) != make_params(2, ODD)
    assert P1.beta != 1  # an element never equals an int


def test_records_differ_in_any_compared_field():
    assert DigitWord(0, (1, 2)) != DigitWord(1, (1, 2))
    assert DigitWord(0, (1, 2)) != DigitWord(0, (1, 2, 0))
    assert EvPeriodicWord(0, (), (1,)) != EvPeriodicWord(0, (), (1, 2))
    assert FDecomposition(3, (1,)) != FDecomposition(3, (1, 0))
    assert Classification("Continuum", (3, 3)) != Classification("Continuum", (9, 3))
    # a DigitWord and an EvPeriodicWord of one value are different records
    assert DigitWord(0, (1,)) != EvPeriodicWord(0, (1,), (0,))


def test_prefix_tree_equality_ignores_graph_and_root():
    x = parse_field("1/3", P1)
    a = enumerate_prefixes(x, 6, P1)
    b = type(a)(a.x, a.depth, a.counts, None, -1)
    assert a == b and hash(a) == hash(b)
    assert a != type(a)(a.x, a.depth, a.counts[:-1] + (0,), a.graph, a.root)
    assert a != enumerate_prefixes(x, 5, P1)


def test_record_reprs():
    # byte for byte what the frozen dataclasses printed
    assert repr(DigitWord(0, (1, 2, 3))) == "DigitWord(int_part=0, digits=(1, 2, 3))"
    assert repr(EvPeriodicWord(1, (1,), (0, 3))) == (
        "EvPeriodicWord(int_part=1, preperiod=(1,), period=(0, 3))")
    assert repr(classify(parse_field("1/3", P1), P1)) == (
        "Classification(verdict='Continuum', certificate=(3, 3))")
    assert repr(classify(parse_field("1/2", P1), P1)) == (
        "Classification(verdict='CountablyInfinite', "
        "certificate=DigitWord(int_part=0, digits=(1, 1)))")
    assert repr(classify(parse_field("0", P1), P1)) == (
        "Classification(verdict='UniqueEndpoint', certificate='0')")
    assert repr(decompose_F(1, 10)) == "FDecomposition(n=10, coeffs=(0, 2, 1))"
    assert repr(enumerate_prefixes(parse_field("1/3", P1), 3, P1)) == (
        "PrefixTree(x=FieldElem('1/3', k=1, odd), depth=3)")
    assert repr(apply_rule("borrow", P1, parse_word("1.0,(3,0)*", P1))) == (
        "RewriteTrace(rule='borrow', "
        "input=(EvPeriodicWord(int_part=1, preperiod=(), period=(0, 3)),), "
        "output=EvPeriodicWord(int_part=0, preperiod=(3,), period=(2, 1)), "
        "steps=(('borrow', 1),), value=FieldElem('(-4+2*b)', k=1, odd))")


def test_record_constructors_take_their_fields():
    assert isinstance(apply_rule("add", P1, DigitWord(0, (1,)), DigitWord(0, (2,))), RewriteTrace)
    w = DigitWord(int_part=2, digits=[3])
    assert (w.int_part, w.digits) == (2, (3,))
    assert FDecomposition(n=1, coeffs=(1,)).coeffs == (1,)
    with pytest.raises(TypeError):
        DigitWord(0)
