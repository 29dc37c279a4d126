"""Recursively enumerable group presentations with lazily pulled relators.

A presentation is an alphabet plus a relator source: the inline prefix, then
one producer that yields the relators beyond it.  The source caches every
relator it has pulled, so ``relator(i)`` is deterministic across calls; a
finite presentation is a source whose producer ends, and all downstream
consumers treat exhaustion as "no further relators ever".

File format (line oriented, ``#`` starts a comment):

    generators: a b
    relator: aa
    relator: bb
    stream: /usr/bin/somecmd args...     # at most one of stream/family
    family: powers aa bb

The relator lines, the inline prefix, come before the ``stream:`` or
``family:`` line.  A file is read in one pass and refused at its first bad
line, which the ``PresentationSyntaxError`` names.
A stream is an external command whose stdout yields one relator per ASCII
line in the compact word format; end of stream means the source is
exhausted.  The command is spawned on the first pull and stopped at end of
stream or on ``close()``.  A stream that fails (to spawn, or on a line that
is not ASCII, not a word, or longer than ``MAX_RELATOR_LETTERS`` characters
before its newline) stays failed: every later pull past the cached
relators raises the same ``StreamError``.  No more of a line is read than
that limit and the newline.  The builtin ``powers`` family never
terminates: it emits t.w.t^-1 for every base word w, over all conjugators
t in enumeration order.

Extending a presentation with a word X (the Algorithm 2 step) places X at
relator index 0 and shifts the base relators up by one, so X is available
in every prefix no matter how slowly the base source produces relators.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from itertools import count, islice

from .words import Alphabet, Word, conjugate, format_word, is_word_over, parse_word, reduce_word, word_at_index


MAX_RELATOR_LETTERS = 10**6  # the longest stream line, newline not counted


class SourceExhausted(Exception):
    """A source has no relator at the requested index."""


class StreamError(RuntimeError):
    """A relator stream failed to spawn, parse, or behave."""


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class RelatorSource:
    """A cache of pulled relators, holding the inline prefix, in front of a producer.

    The producer iterates over the relators beyond the prefix; its end is the
    source's exhaustion, and the first error it raises is raised again by
    every later pull that needs a new relator.  ``inline_count`` is the
    length of the prefix.  Pulls are serialized by a lock.
    """

    def __init__(self, prefix: Iterable[Word], producer: Iterable[Word] = ()):
        self._cache: list[Word] = list(prefix)
        self.inline_count = len(self._cache)
        self._producer = iter(producer)
        self._error: BaseException | None = None
        self._lock = threading.Lock()

    @property
    def pulled_count(self) -> int:
        return len(self._cache)

    def _pull_until(self, n: int) -> None:
        with self._lock:
            if n <= len(self._cache):
                return
            if self._error is not None:
                raise self._error
            try:
                self._cache.extend(islice(self._producer, n - len(self._cache)))
            except BaseException as exc:
                self._error = exc
                raise

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

    def close(self) -> None:
        """Close the producer; a stream stops its command."""
        with self._lock:
            if hasattr(self._producer, "close"):  # a generator; an inline source has none
                self._producer.close()


def _powers(base: tuple[Word, ...], alphabet: Alphabet) -> Iterator[Word]:
    """The builtin ``powers`` family: t_q.w.t_q^-1 for each base word w, for q = 0, 1, ...

    t_q is the q-th word in enumeration order, so t_0 is the empty word.
    """
    for q in count():
        t = word_at_index(q, alphabet)
        for w in base:
            yield conjugate(t, w)


def _stream(command: str, alphabet: Alphabet) -> Iterator[Word]:
    """Relators read one per ASCII line from ``command``'s stdout.

    The command is spawned on the first pull, which is also when
    ``subprocess`` is first imported; it is stopped and reaped at end of
    stream, on an error, or when the generator is closed.
    """
    import shlex
    import subprocess

    try:
        proc = subprocess.Popen(shlex.split(command), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    except (OSError, ValueError) as exc:
        raise StreamError(f"cannot spawn relator stream {command!r}: {exc}") from exc
    try:
        for line_no in count(1):
            line = proc.stdout.readline(MAX_RELATOR_LETTERS + 1)
            if not line:
                return
            if len(line) > MAX_RELATOR_LETTERS and not line.endswith(b"\n"):
                raise StreamError(f"stream line {line_no} is longer than {MAX_RELATOR_LETTERS} letters")
            try:
                word = parse_word(line.decode("ascii").strip(), alphabet)
            except ValueError as exc:  # UnicodeDecodeError included
                raise StreamError(f"bad relator on stream line {line_no}: {exc}") from exc
            yield word
    finally:
        proc.terminate()  # a no-op once the child has exited
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class Presentation:
    """<S | R>, optionally extended by a word X occupying relator index 0."""

    def __init__(self, alphabet: Alphabet, source: RelatorSource, extended_by: Word | None = None):
        self.alphabet = alphabet
        self.source = source
        self.extended_by = extended_by
        self._head = () if extended_by is None else (extended_by,)  # the relators before the source's

    @property
    def extended(self) -> bool:
        return self.extended_by is not None

    def relator(self, i: int) -> Word:
        if 0 <= i < len(self._head):
            return self._head[i]
        return self.source.relator(i - len(self._head))

    def try_relator(self, i: int) -> Word | None:
        try:
            return self.relator(i)
        except SourceExhausted:
            return None

    def available(self, upto: int) -> int:
        """How many relators with index < upto this presentation can supply."""
        if upto <= 0:
            return 0
        return len(self._head) + self.source.available(upto - len(self._head))

    @property
    def pulled_count(self) -> int:
        return len(self._head) + self.source.pulled_count

    @property
    def inline_count(self) -> int:
        """How many relators are given up front: X, if extended, and the inline prefix."""
        return len(self._head) + self.source.inline_count

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


def _checked(line_no: int, parse, *args):
    """parse(*args) on a value of line ``line_no``; a ValueError is a syntax error of that line."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise PresentationSyntaxError(str(exc), line_no) from exc


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format; inline relators are reduced on load."""
    alphabet: Alphabet | None = None
    inline: list[Word] = []
    source: RelatorSource | None = None  # built at the stream/family line

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
            alphabet = _checked(line_no, Alphabet, tuple(names))
            continue
        if alphabet is None:
            raise PresentationSyntaxError("generators line must come first", line_no)
        if key == "relator":
            if source is not None:
                raise PresentationSyntaxError("relator after stream/family line", line_no)
            inline.append(_checked(line_no, parse_word, value, alphabet))
        elif key in ("stream", "family"):
            if source is not None:
                raise PresentationSyntaxError("more than one stream/family line", line_no)
            if not value:
                raise PresentationSyntaxError(f"{key} line has no value", line_no)
            if key == "stream":  # spawned on the first pull, so a file refused later starts nothing
                producer = _stream(value, alphabet)
            else:
                name, *args = value.split()
                if name != "powers":
                    raise PresentationSyntaxError(f"unknown family {name!r}", line_no)
                base = tuple(_checked(line_no, parse_word, a, alphabet) for a in args)
                if not base:
                    raise PresentationSyntaxError("family powers needs at least one base word", line_no)
                producer = _powers(base, alphabet)
            source = RelatorSource(inline, producer)
        else:
            raise PresentationSyntaxError(f"unknown key {key!r}", line_no)

    if alphabet is None:
        raise PresentationSyntaxError("missing generators line")
    return Presentation(alphabet, source or RelatorSource(inline))


def prefix_document(p: Presentation, count: int) -> str:
    """Canonical text of the alphabet plus the first ``count`` relators.

    Pulls relators as needed; used to bind certificates to the exact
    presentation prefix they cite.
    """
    lines = ["generators: " + " ".join(p.alphabet.generators)]
    for i in range(count):
        lines.append("relator: " + format_word(p.relator(i), p.alphabet))
    return "\n".join(lines) + "\n"
