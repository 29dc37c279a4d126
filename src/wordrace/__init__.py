"""Decision engine for the word problem in finitely generated just infinite groups.

Two semi-decision procedures race under fair interleaving, each a coset
enumeration of the trivial subgroup with a proof on every table entry: one
enumerates the cosets of G and proves X = 1 once X leads from coset 0 back
to it, the other enumerates those of the extended group to prove X != 1 by
exhibiting that group as finite.
Either outcome comes with an independently checkable certificate.

Each public name, and each module, loads on first use (PEP 562), so that an
entry point compiles only what it runs: the verifier never loads the prover.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "certificates": "DyckFactor EqualityCertificate FinitenessCertificate MultiplicationTable",
    "derivation": "EqualityTask",
    "presentation": "Presentation PresentationSyntaxError SourceExhausted StreamError extend parse_presentation",
    "proofs": "equation_words",
    "quotient": "FinitenessTask",
    "scheduler": "EQUAL EXHAUSTED NOT_EQUAL Budget Outcome solve",
    "tables": "enumerate_tables eval_in_table is_group_table table_at_cursor",
    "words": "Alphabet MalformedWordError Word alphabet concat conjugate format_word invert parse_word reduce_word "
             "word_at_index",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULES = {*_EXPORTS, "certcheck", "cli", "cosets", "oracle"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:  # importing a submodule binds it here
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_MODULES})
