"""Decision engine for the word problem in finitely generated just infinite groups.

Two semi-decision procedures race under fair interleaving: one enumerates
products of conjugated relators to prove X = 1, the other enumerates the
cosets of the trivial subgroup of the extended group, with a proof on
every table entry, to prove X != 1 by exhibiting that group as finite.
Either outcome comes with an independently checkable certificate.
"""

from .derivation import DyckFactor, EqualityCertificate, EqualityTask
from .presentation import (
    Presentation,
    PresentationSyntaxError,
    SourceExhausted,
    StreamError,
    extend,
    parse_presentation,
)
from .quotient import FinitenessCertificate, FinitenessTask, equation_words
from .scheduler import EQUAL, EXHAUSTED, NOT_EQUAL, Budget, Outcome, solve
from .tables import (
    MultiplicationTable,
    enumerate_tables,
    eval_in_table,
    is_group_table,
    table_at_cursor,
)
from .words import (
    Alphabet,
    MalformedWordError,
    Word,
    alphabet,
    concat,
    conjugate,
    format_word,
    invert,
    parse_word,
    reduce_word,
    word_at_index,
)

__version__ = "0.1.0"
