"""Seeded query sets for the three benchmark workloads.

A workload is a presentation plus a generator of *rounds*.  A round is one
seeded draw of queries whose cost does not depend much on the seed, and a
run executes as many whole rounds as fit in ``--seconds`` (at least one),
by the round's nominal cost in reference-speed seconds (see ``pace.py``),
so the same ``--seconds`` means the same work on any machine.

Words are generated here as text, independently of the library, and only
then parsed by it.  Expected verdicts come from the ground-truth oracles in
``wordrace.oracle``, imported after set-up so that set-up stays cold.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

DINF_TEXT = "generators: a b\nrelator: aa\nrelator: bb\n"

# Automorphisms of Dinf = <a, b | aa, bb> acting on the compact word text:
# a -> a^-1, b -> b^-1 and a <-> b.  They preserve the verdict of every word.
_SYMMETRIES = (
    str.maketrans("aA", "Aa"),
    str.maketrans("bB", "Bb"),
    str.maketrans("abAB", "baBA"),
)


@dataclass(frozen=True)
class Query:
    """One word to solve at the default budget and what the oracle says of it.

    ``is_identity`` is None where no verdict exists, so that the only
    correct outcome is an exhausted budget.
    """

    word: str
    is_identity: bool | None


@dataclass(frozen=True)
class Workload:
    name: str
    presentation_text: str
    round_seconds: float
    draw_round: Callable[[random.Random, int], list]  # (rng, round number) -> queries

    def queries(self, seed: int, seconds: float) -> list:
        """The run's queries: whole rounds drawn from the seed, in order."""
        rng = random.Random(f"{self.name}:{seed}")
        rounds = max(1, int(seconds // self.round_seconds))
        out = []
        for number in range(rounds):
            out.extend(self.draw_round(rng, number))
        return out


def reduced_words():
    """Every reduced word over a, b in length-lexicographic order (a < A < b < B), forever."""
    frontier = [""]
    yield ""
    while True:
        frontier = [w + ch for w in frontier for ch in "aAbB" if not w or w[-1].swapcase() != ch]
        yield from frontier


def dinf_orbits(max_len: int = 4) -> list:
    """The reduced words of length <= max_len, split into symmetry orbits.

    Words in one orbit are mathematically the same query; they differ only
    in where the enumeration order happens to meet them, so each orbit is a
    cost stratum.  The 8 commutator words (abAB ...) are one orbit.
    """
    seen = set()
    orbits = []
    for word in itertools.takewhile(lambda w: len(w) <= max_len, reduced_words()):
        if word in seen:
            continue
        orbit = {word}
        frontier = [word]
        while frontier:
            w = frontier.pop()
            for table in _SYMMETRIES:
                image = w.translate(table)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def _dinf_queries(words: list) -> list:
    from wordrace import alphabet, parse_word
    from wordrace.oracle import is_identity_dinf

    ab = alphabet("ab")
    return [Query(w, is_identity_dinf(parse_word(w, ab))) for w in words]


def _costly_orbits() -> list:
    """Flags, in orbit order, for the orbits whose words need an order-4 quotient.

    Words whose Dinf normal form has length 4 (abab and its relatives) cost
    12k-170k steps per arm; every other word needs at most order 2 and
    costs under 3k.
    """
    from wordrace import alphabet, parse_word
    from wordrace.oracle import dinf_normal_form

    ab = alphabet("ab")
    return [len(dinf_normal_form(parse_word(orbit[0], ab))) == 4 for orbit in dinf_orbits()]


def _corpus_round(rng: random.Random, number: int) -> list:
    """The Dinf population with its four costly orbits sampled, shuffled.

    A round takes every one of the 129 cheap words, two seeded words from
    each of the three orbits of 12k steps per arm, and one commutator.  Round
    ``number`` takes the commutator at that place in the sorted orbit, not a
    seeded one: the commutators cost 155k-172k steps per arm and set the
    run's peak memory, so a seeded pick made wall_s and peak_rss_mb depend
    on the seed by up to 8%.  With two rounds, the tail query (the eleventh
    slowest) falls among the twelve equally costly 12k-step words rather
    than at the edge of the cheap ones, where it swung by a fifth.  The cost
    of a run thus barely depends on the seed, and the median and tail
    queries come from the same population each time.
    """
    words = []
    for orbit, costly in zip(dinf_orbits(), _costly_orbits()):
        if "abAB" in orbit:
            words.append(orbit[number % len(orbit)])
        elif costly:
            words.extend(rng.sample(orbit, 2))
        else:
            words.extend(orbit)
    rng.shuffle(words)
    return _dinf_queries(words)


def _z_round(rng: random.Random, number: int) -> list:
    """a^4 and a^5 with both signs, then a^6 with a seeded sign.

    a^n and a^-n cost the same to within 1%, so one seeded sign of the
    costliest power stands for both.  The five queries put the median on an
    a^+-5 race of seconds and the tail on a^6, the largest.  |n| <= 3 are
    left out: solved in a millisecond or two, they would put the median on
    a timing that swung twofold between runs.  |n| = 7, 8 are left out too:
    at the default budget each burns the full 10^6 steps (17 s) and
    exhausts.
    """
    from wordrace import alphabet, parse_word
    from wordrace.oracle import is_identity_z

    words = ["aaaa", "AAAA", "aaaaa", "AAAAA", rng.choice("aA") * 6]
    a = alphabet("a")
    return [Query(w, is_identity_z(parse_word(w, a))) for w in words]


def _free_round(rng: random.Random, number: int) -> list:
    """X = one generator letter of F2 (all four are automorphic).

    The free group is not just infinite, so the only correct outcome is an
    exhausted budget split evenly between the arms.
    """
    return [Query(rng.choice("aAbB"), None)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dinf-corpus", DINF_TEXT, 10.0, _corpus_round),
        Workload("z-powers", "generators: a\n", 22.0, _z_round),
        Workload("free-exhaust", "generators: a b\n", 11.0, _free_round),
    )
}
