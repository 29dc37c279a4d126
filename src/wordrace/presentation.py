"""Recursively enumerable group presentations with lazily pulled relators.

A presentation is an alphabet plus a relator source.  Sources cache every
relator they have produced, so ``relator(i)`` is deterministic across calls;
a finite presentation is just a source that signals exhaustion, and all
downstream consumers treat exhaustion as "no further relators ever".

File format (line oriented, ``#`` starts a comment):

    generators: a b
    relator: aa
    relator: bb
    stream: /usr/bin/somecmd args...     # at most one of stream/family
    family: powers aa bb

Relator lines before a ``stream:``/``family:`` line form an inline prefix.
A stream is an external command whose stdout yields one relator per line in
the compact word format; end of stream means the source is exhausted.  The
builtin ``powers`` family never terminates: it emits t.w.t^-1 for every
base word w, over all conjugators t in enumeration order.

Extending a presentation with a word X (the Algorithm 2 step) places X at
relator index 0 and shifts the base relators up by one, so X is available
in every prefix no matter how slowly the base source produces relators.
"""

from __future__ import annotations

import shlex
import subprocess
import threading
from dataclasses import dataclass

from .words import Alphabet, Word, conjugate, format_word, is_word_over, parse_word, reduce_word, word_at_index


class SourceExhausted(Exception):
    """An inline source has no relator at the requested index."""


class StreamError(RuntimeError):
    """A relator stream failed to spawn, parse, or behave."""


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class RelatorSource:
    """Base class: a cache of pulled relators in front of a producer.

    Subclasses implement ``_produce(j)`` returning the j-th relator beyond
    the inline prefix, or None once the producer is exhausted.  Pulls are
    serialized by a lock; relators already pulled never change.
    """

    def __init__(self, prefix: tuple[Word, ...] = ()):
        self._prefix = tuple(prefix)
        self._cache: list[Word] = list(self._prefix)
        self._exhausted = False
        self._lock = threading.Lock()

    @property
    def pulled_count(self) -> int:
        return len(self._cache)

    def _produce(self, j: int) -> Word | None:
        return None

    def _pull_until(self, n: int) -> None:
        with self._lock:
            while len(self._cache) < n and not self._exhausted:
                nxt = self._produce(len(self._cache) - len(self._prefix))
                if nxt is None:
                    self._exhausted = True
                else:
                    self._cache.append(nxt)

    def relator(self, i: int) -> Word:
        if i < 0:
            raise IndexError("relator index must be >= 0")
        self._pull_until(i + 1)
        if i < len(self._cache):
            return self._cache[i]
        raise SourceExhausted(f"source exhausted before relator {i}")

    def available(self, upto: int) -> int:
        """Pull and report how many relators with index < upto exist."""
        self._pull_until(upto)
        return min(upto, len(self._cache))

    def lattice_relators(self) -> tuple[Word, ...] | None:
        """Finitely many relators whose exponent sums span those of every relator.

        None when no such finite list is known, as for a stream.
        """
        return None

    def close(self) -> None:
        pass


class InlineSource(RelatorSource):
    """A finite list of relators; exhaustion beyond the end."""

    def __init__(self, words):
        super().__init__(tuple(words))

    def lattice_relators(self) -> tuple[Word, ...]:
        return self._prefix  # every relator


class FamilySource(RelatorSource):
    """Builtin infinite family ``powers``: conjugates of the base words.

    Relator j with m base words is t_q . w_(j mod m) . t_q^-1 where
    q = j div m and t_q is the q-th word in enumeration order.
    """

    def __init__(self, base_words, alphabet: Alphabet, prefix=()):
        if not base_words:
            raise PresentationSyntaxError("family powers needs at least one base word")
        super().__init__(prefix)
        self.base_words = tuple(base_words)
        self.alphabet = alphabet

    def lattice_relators(self) -> tuple[Word, ...]:
        # t.w.t^-1 has the exponent sums of w, and w itself is relator
        # t_0.w.t_0^-1 (t_0 is the empty word).
        return self._prefix + self.base_words

    def _produce(self, j: int) -> Word:
        q, m = divmod(j, len(self.base_words))
        t = word_at_index(q, self.alphabet)
        return conjugate(t, self.base_words[m])


class StreamSource(RelatorSource):
    """Relators read lazily, one per line, from an external command's stdout."""

    def __init__(self, command: str, alphabet: Alphabet, prefix=()):
        super().__init__(prefix)
        self.command = command
        self.alphabet = alphabet
        self._proc: subprocess.Popen | None = None
        self._line_no = 0

    def _start(self) -> None:
        argv = shlex.split(self.command)
        if not argv:
            raise StreamError("empty stream command")
        try:
            self._proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True
            )
        except OSError as exc:
            raise StreamError(f"cannot spawn relator stream {self.command!r}: {exc}") from exc

    def _produce(self, j: int) -> Word | None:
        if self._proc is None:
            self._start()
        line = self._proc.stdout.readline()
        if line == "":
            return None
        self._line_no += 1
        try:
            return parse_word(line.strip(), self.alphabet)
        except ValueError as exc:
            raise StreamError(f"bad relator on stream line {self._line_no}: {exc}") from exc

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


@dataclass
class Presentation:
    """<S | R>, optionally extended by a word X occupying relator index 0."""

    alphabet: Alphabet
    source: RelatorSource
    extended_by: Word | None = None

    @property
    def extended(self) -> bool:
        return self.extended_by is not None

    def relator(self, i: int) -> Word:
        if self.extended_by is not None:
            if i == 0:
                return self.extended_by
            return self.source.relator(i - 1)
        return self.source.relator(i)

    def try_relator(self, i: int) -> Word | None:
        try:
            return self.relator(i)
        except SourceExhausted:
            return None

    def available(self, upto: int) -> int:
        """How many relators with index < upto this presentation can supply."""
        if upto <= 0:
            return 0
        if self.extended_by is not None:
            return 1 + self.source.available(upto - 1)
        return self.source.available(upto)

    def lattice_relators(self) -> tuple[Word, ...] | None:
        """X, then the source's relators spanning its exponent-sum lattice; or None."""
        relators = self.source.lattice_relators()
        if relators is None or self.extended_by is None:
            return relators
        return (self.extended_by,) + relators

    @property
    def pulled_count(self) -> int:
        extra = 1 if self.extended_by is not None else 0
        return self.source.pulled_count + extra

    def close(self) -> None:
        self.source.close()


def extend(p: Presentation, x: Word) -> Presentation:
    """The presentation of G1 = G/Ncl(x): x, freely reduced, becomes relator 0."""
    if p.extended:
        raise ValueError("presentation is already extended")
    if not is_word_over(x, p.alphabet):
        raise ValueError("word is not over the presentation's alphabet")
    x = reduce_word(x)
    if x == b"":
        raise ValueError("cannot extend by a word that reduces to the empty word")
    return Presentation(p.alphabet, p.source, extended_by=x)


_FAMILIES = {"powers"}


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format; inline relators are reduced on load."""
    alphabet: Alphabet | None = None
    inline: list[Word] = []
    tail: tuple[str, str] | None = None  # (kind, payload)
    tail_line = 0

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise PresentationSyntaxError(f"expected 'key: value', got {line!r}", line_no)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "generators":
            if alphabet is not None:
                raise PresentationSyntaxError("duplicate generators line", line_no)
            names = value.split()
            if not names:
                raise PresentationSyntaxError("generators line lists no names", line_no)
            try:
                alphabet = Alphabet(tuple(names))
            except ValueError as exc:
                raise PresentationSyntaxError(str(exc), line_no) from exc
            continue
        if alphabet is None:
            raise PresentationSyntaxError("generators line must come first", line_no)
        if key == "relator":
            if tail is not None:
                raise PresentationSyntaxError("relator after stream/family line", line_no)
            try:
                inline.append(parse_word(value, alphabet))
            except ValueError as exc:
                raise PresentationSyntaxError(str(exc), line_no) from exc
        elif key in ("stream", "family"):
            if tail is not None:
                raise PresentationSyntaxError("more than one stream/family line", line_no)
            if not value:
                raise PresentationSyntaxError(f"{key} line has no value", line_no)
            tail = (key, value)
            tail_line = line_no
        else:
            raise PresentationSyntaxError(f"unknown key {key!r}", line_no)

    if alphabet is None:
        raise PresentationSyntaxError("missing generators line")

    if tail is None:
        source: RelatorSource = InlineSource(inline)
    elif tail[0] == "stream":
        source = StreamSource(tail[1], alphabet, prefix=inline)
    else:
        parts = tail[1].split()
        name, args = parts[0], parts[1:]
        if name not in _FAMILIES:
            raise PresentationSyntaxError(f"unknown family {name!r}", tail_line)
        try:
            base = [parse_word(a, alphabet) for a in args]
        except ValueError as exc:
            raise PresentationSyntaxError(str(exc), tail_line) from exc
        source = FamilySource(base, alphabet, prefix=inline)

    return Presentation(alphabet, source)


def prefix_document(p: Presentation, count: int) -> str:
    """Canonical text of the alphabet plus the first ``count`` relators.

    Pulls relators as needed; used to bind certificates to the exact
    presentation prefix they cite.
    """
    lines = ["generators: " + " ".join(p.alphabet.generators)]
    for i in range(count):
        lines.append("relator: " + format_word(p.relator(i), p.alphabet))
    return "\n".join(lines) + "\n"
