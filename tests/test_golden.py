"""Golden outputs: verdicts, per-arm steps and certificate text never move.

Each entry is the SHA-256 of one query's verdict line and canonical
certificate text, captured before the race hot path was rewritten.  A
speed-up of the solver must reproduce every byte: the same winning
product, the same winning (table, tau) candidate, the same step counts.
The letters-mode and ``family:`` entries were captured before admission
became incremental and the Dyck stream stopped re-reading its relators.
"""

import hashlib

import pytest

from helpers import serialize_certificate
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import LETTERS_MODE, WORDS_MODE
from wordrace.scheduler import EXHAUSTED, NOT_EQUAL, Budget, solve
from wordrace.words import parse_word

DINF = "generators: a b\nrelator: aa\nrelator: bb\n"
Z = "generators: a\n"
F2 = "generators: a b\n"
D4 = "generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n"
POWERS = "generators: a b\nfamily: powers aa bb\n"

GOLDEN = [
    (DINF, "ab", Budget(), "9b84f063f1c86b9357003695f62d8d528f3607be3c6c3b253a22297bf095797a"),
    (DINF, "abab", Budget(), "7fff865f88522199fe4a0a711975b58ac488975e03fb8b7a7114b2554f477536"),
    (DINF, "abAB", Budget(), "53c7bb4902a59bf53bb71b0daf1df9519fd87055301a6e2cadce68903d095e19"),
    (DINF, "aba", Budget(), "98ddbd9302d74e9c1659cee9ffeb6c7fc9a843260dd9bbd2aee8b8660e45bc9b"),
    (Z, "aaaa", Budget(), "7a40d05c49b956512f90210320ccbee70714291d85e5e8388ef3ed6d4c3e47c0"),
    (Z, "AAAAA", Budget(), "11c40ef27406b4883ec2d8c886f46302fa133a35373d4eeb90add8637e475d79"),
    (F2, "a", Budget(20_000), "8cf26a7cf1a00b8de4e7dd46942e51ae039c7fb2259c9114216a316005b9041c"),
]


# Letters-mode tau, and a relator source that is never exhausted.
GOLDEN_MODES = [
    pytest.param(D4, "a", Budget(), LETTERS_MODE,
                 "e77510fbe9c4058af344d311ca7d6431a98c38e7655a92aff45e04597d620b66", id="letters-d4-a"),
    pytest.param(POWERS, "abab", Budget(), WORDS_MODE,
                 "7fff865f88522199fe4a0a711975b58ac488975e03fb8b7a7114b2554f477536", id="powers-abab"),
]


def fingerprint(text: str, word: str, budget: Budget, tau_mode: str = WORDS_MODE) -> str:
    p = parse_presentation(text)
    x = parse_word(word, p.alphabet)
    out = solve(p, x, budget, tau_mode=tau_mode)
    body = f"{out.verdict} {out.steps_equal_arm} {out.steps_finite_arm}\n"
    if out.verdict != EXHAUSTED:
        owner = extend(p, x) if out.verdict == NOT_EQUAL else p
        body += serialize_certificate(out.certificate, owner)
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("text, word, budget, digest", GOLDEN, ids=[g[1] for g in GOLDEN])
def test_output_unchanged(text, word, budget, digest):
    assert fingerprint(text, word, budget) == digest


@pytest.mark.parametrize("text, word, budget, mode, digest", GOLDEN_MODES)
def test_output_unchanged_in_mode(text, word, budget, mode, digest):
    assert fingerprint(text, word, budget, mode) == digest
