"""Freely reduced words over a finite signed alphabet.

A word is stored as an immutable ``bytes`` object, one byte per letter:
byte ``2*i`` is generator number ``i``, byte ``2*i + 1`` is its inverse.
The empty bytes object is the identity.  This encoding makes the inverse
of a letter ``x ^ 1``, keeps words hashable and compact, and makes plain
byte comparison coincide with the letter order a < a^-1 < b < b^-1 < ...

Words are kept freely reduced at all times; unreduced letter sequences
exist only as inputs to :func:`reduce_word`, the one routine that accepts
them.  The product kernels (:func:`concat` and the routines built on it)
assume reduced operands: only the junction of two reduced words can cancel.

Text format: lowercase letter = generator, uppercase letter = its
inverse (``abA`` is a.b.a^-1), empty string = identity.

:class:`Alphabet` is a ``typing.NamedTuple``, as every record of the
library is; it validates in ``__new__``, on every path that builds one.
"""

from __future__ import annotations

from typing import NamedTuple

Word = bytes

MAX_GENERATORS = 26


class MalformedWordError(ValueError):
    """A letter sequence refers outside its alphabet or is unparseable."""


class Alphabet(NamedTuple("Alphabet", [("generators", tuple[str, ...])])):
    """Ordered generator names; single lowercase Latin letters, all distinct."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make: validate there too

    def __new__(cls, generators: tuple[str, ...]):
        if not 1 <= len(generators) <= MAX_GENERATORS:
            raise MalformedWordError(f"alphabet must have 1..{MAX_GENERATORS} generators, got {len(generators)}")
        seen = set()
        for name in generators:
            if len(name) != 1 or not ("a" <= name <= "z"):
                raise MalformedWordError(f"generator name {name!r} is not a lowercase letter")
            if name in seen:
                raise MalformedWordError(f"duplicate generator {name!r}")
            seen.add(name)
        return super().__new__(cls, generators)

    @property
    def k(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise MalformedWordError(f"unknown generator {name!r}") from None


def alphabet(names: str) -> Alphabet:
    """Build an alphabet from a compact string of generator names, e.g. ``"ab"``."""
    return Alphabet(tuple(names))


def is_word_over(w: Word, alphabet: Alphabet) -> bool:
    """Whether every letter of w is a generator of the alphabet or its inverse."""
    return all(0 <= letter < 2 * alphabet.k for letter in w)


def reduce_word(raw) -> Word:
    """Freely reduce a letter sequence; idempotent on already-reduced input.

    Letters are not range-checked: callers check outside input on entry
    with :func:`is_word_over`.
    """
    out = bytearray()
    for x in raw:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return bytes(out)


FLIP = bytes(x ^ 1 for x in range(256))  # letter byte -> the inverse letter


def invert(w: Word) -> Word:
    """w^-1: reverse the letters and flip every sign."""
    return w[::-1].translate(FLIP)


def concat(u: Word, v: Word) -> Word:
    """Reduced product u.v of reduced words: only their junction can cancel."""
    if not (u and v and u[-1] == v[0] ^ 1):
        return u + v
    n = min(len(u), len(v))
    i = 1
    while i < n and u[-1 - i] == v[i] ^ 1:
        i += 1
    return u[:-i] + v[i:]


def concat_all(words) -> Word:
    """Reduced product of a sequence of words, each of which must be reduced."""
    out = b""
    for w in words:
        out = concat(out, w)
    return out


def conjugate(t: Word, w: Word) -> Word:
    """Reduced t.w.t^-1 of reduced t and w."""
    return concat(concat(t, w), invert(t))


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the compact text format and reduce."""
    raw = bytearray()
    for ch in text:
        if "a" <= ch <= "z":
            raw.append(2 * alphabet.index(ch))
        elif "A" <= ch <= "Z":
            raw.append(2 * alphabet.index(ch.lower()) + 1)
        else:
            raise MalformedWordError(f"invalid character {ch!r} in word {text!r}")
    return reduce_word(raw)


def format_word(w: Word, alphabet: Alphabet) -> str:
    """Render a word in the compact text format; identity is the empty string."""
    chars = []
    for x in w:
        name = alphabet.generators[x >> 1]
        chars.append(name.upper() if x & 1 else name)
    return "".join(chars)


def count_words(length: int, k: int) -> int:
    """Number of reduced words of exactly this length over rank k."""
    if length == 0:
        return 1
    return 2 * k * (2 * k - 1) ** (length - 1)


def count_words_up_to(length: int, k: int) -> int:
    """Number of reduced words of length <= the bound."""
    return sum(count_words(n, k) for n in range(length + 1))


def word_at_index(n: int, alphabet: Alphabet) -> Word:
    """The n-th reduced word in length-lexicographic order.

    Index 0 is the empty word; within a length, ties break by the letter
    order a < a^-1 < b < b^-1 < ..., skipping non-reduced sequences.
    This is a bijection from the naturals onto all reduced words.
    """
    if n < 0:
        raise ValueError("index must be a natural number")
    if n == 0:
        return b""
    k = alphabet.k
    n -= 1
    length = 1
    while True:
        block = count_words(length, k)
        if n < block:
            break
        n -= block
        length += 1
    base = 2 * k - 1
    div = base ** (length - 1)
    first, n = divmod(n, div)
    letters = [first]
    for _ in range(1, length):
        div //= base
        d, n = divmod(n, div)
        forbidden = letters[-1] ^ 1
        letters.append(d if d < forbidden else d + 1)
    return bytes(letters)
