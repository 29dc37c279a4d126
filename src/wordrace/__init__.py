"""Decision engine for the word problem in finitely generated just infinite groups.

Two semi-decision procedures race under fair interleaving, each a coset
enumeration of the trivial subgroup with a proof on every table entry: one
enumerates the cosets of G and proves X = 1 once X leads from coset 0 back
to it, the other enumerates those of the extended group to prove X != 1 by
exhibiting that group as finite.
Either outcome comes with an independently checkable certificate.
"""

from .certificates import DyckFactor, EqualityCertificate, FinitenessCertificate, MultiplicationTable, is_group_table
from .derivation import EqualityTask
from .presentation import (
    Presentation,
    PresentationSyntaxError,
    SourceExhausted,
    StreamError,
    extend,
    parse_presentation,
)
from .quotient import FinitenessTask, equation_words
from .scheduler import EQUAL, EXHAUSTED, NOT_EQUAL, Budget, Outcome, solve
from .tables import enumerate_tables, eval_in_table, table_at_cursor
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
