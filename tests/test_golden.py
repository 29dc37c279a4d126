"""Golden outputs: verdicts, per-arm steps and certificate text never move.

Each entry is the SHA-256 of one query's verdict line and canonical
certificate text.  A speed-up of the solver must reproduce every byte:
the same winning product, the same finiteness certificate, the same step
counts.  The equality-verdict entries (Dinf ``abba``, ``aaaaaaaa`` and
``abbaabba``, and ``powers-abba``) were captured when the equality arm
became a coset enumeration of G that defines the path of X from coset 0
first and traces X along it: Dinf ``abba`` is decided in (9, 8) steps,
``aaaaaaaa`` in (14, 13) and ``abbaabba`` in (17, 16), where the Dyck
product search took (109, 108) for ``abba`` and exhausted the default
budget on the other two; ``powers-abba`` takes (2,056, 2,055) instead of
(143, 142), its relators joining the enumeration after 1,000 and 2,000
steps.  The words-mode not-equal entries
(the Dinf and Z ones and ``powers-abab``) were re-captured when a
proof-carrying coset enumeration replaced the blind search over (table,
tau) candidates: the winning table is now the quotient's own regular
table with its shortlex transversal, the proofs are read off the
enumeration, and it closes in 7-14 steps per arm on the inline
presentations (2,229 under ``family: powers``, whose relators join the
enumeration after 1,000 and 2,000 steps) where the search took 219 to
155,796.  ``letters-d4-a`` was re-captured when letters mode began to
read its certificate off the same enumeration instead of searching
(table, tau) pairs blind: D4 with X = a is G1 = Z/2 over the letters a
and b, and it is decided in (7, 7) steps instead of (2,182, 2,182).
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
    (DINF, "ab", Budget(), "92c309d6854b6daa6672e376900a6c8b987658a65f9e8457a5433b4829f66a40"),
    (DINF, "abab", Budget(), "50204a25b07c49d0f743dfef4779888f53b11d58793fec6fecc24c027a368167"),
    (DINF, "abAB", Budget(), "759a1160a18b948c8a51a26965cac8a2a9773f28d50888548c185379bb633b43"),
    (DINF, "aba", Budget(), "a6a80fb6ac57ccc58473de04cb5e4c46c7c90615315f1f1bbac5aec3c07af4a0"),
    (DINF, "abba", Budget(), "36d53bcd4f8c1cdc21ea2a81c59b941ad315034239d4579a8c46efbb0b0e26a1"),
    (DINF, "aaaaaaaa", Budget(), "93c13c81e88ffd5886f2b4d04ab3a382936ebec4883a27bc3bcac9ad0cd3c201"),
    (DINF, "abbaabba", Budget(), "8a4a20c077afaaf075a084b4bdf08de50b5222302a07c606cd982cacf8e5bd4a"),
    (Z, "aaaa", Budget(), "2433aa1c053353ede75973426388feec0ba4e45e094b2ef628c158e8b65da0ed"),
    (Z, "AAAAA", Budget(), "8712360317d10abdb918fe19a6e7764cb8497e76cd4b1723265709ec1e78cbf3"),
    (F2, "a", Budget(20_000), "8cf26a7cf1a00b8de4e7dd46942e51ae039c7fb2259c9114216a316005b9041c"),
]


# Letters-mode tau, and a relator source that is never exhausted, for each verdict.
GOLDEN_MODES = [
    pytest.param(D4, "a", Budget(), LETTERS_MODE,
                 "6182bd17f4de2ba2e0e9778fc7d9758eef2ee1b95648011f42201cfda889f49f", id="letters-d4-a"),
    pytest.param(POWERS, "abab", Budget(), WORDS_MODE,
                 "9ca4c88512fa2bcb7a3d38e475a00d7d4ce2dbae06d328dbf288d28ed769d1ca", id="powers-abab"),
    pytest.param(POWERS, "abba", Budget(), WORDS_MODE,
                 "0689d55981336014781c14f07ddc66f0e802f4e8f127be2dcae7e5b381fd5cc9", id="powers-abba"),
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
