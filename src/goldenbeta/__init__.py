"""Exact arithmetic and expansion analysis for generalized golden ratio bases."""

from .algebra import (
    EVEN,
    ODD,
    DomainError,
    FieldElem,
    ParameterError,
    Params,
    fe_membership,
    format_field,
    make_params,
    parse_field,
)
from .words import (
    DigitWord,
    EvPeriodicWord,
    ParseError,
    Word,
    format_word,
    parse_word,
    word_value,
)
from .expand import Classification, branch_witness, classify, enumerate_prefixes, synth_finite

# The levels of ``verify.verify_suite``, spelled here so that the CLI can
# offer them without importing ``verify``.
LEVELS = ("fast", "full")

__all__ = [
    "EVEN",
    "ODD",
    "DomainError",
    "FieldElem",
    "ParameterError",
    "Params",
    "fe_membership",
    "format_field",
    "make_params",
    "parse_field",
    "DigitWord",
    "EvPeriodicWord",
    "ParseError",
    "Word",
    "format_word",
    "parse_word",
    "word_value",
    "Classification",
    "branch_witness",
    "classify",
    "enumerate_prefixes",
    "synth_finite",
]

__version__ = "0.1.0"
