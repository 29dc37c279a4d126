"""Independent verifier and canonical text form for both certificate kinds.

The verifier is straight-line by design: it re-pulls the cited relators,
re-assembles products with fresh reductions, and compares letters.  Its
imports are ``words``, ``presentation`` and ``certificates`` (the records),
which reach no prover code, so a prover bug cannot certify itself.

There is one path per certificate kind.  ``verify_equality`` and
``verify_finiteness`` check an in-memory certificate, and reject a relator
index of MAX_RELATORS or more before pulling; a finiteness certificate
must carry exactly the nested certificates its nonempty goals need.
``verify_equality_document`` and ``verify_finiteness_document`` check a
parsed document's target (finiteness only), then its certificate, by the
certificate check, and last its digests.

Each certificate has one document: the text that ``_lines`` renders.
Writing renders a document with computed digests; ``parse_certificate``
renders the document it parsed, with the digests it states, and refuses
the text unless each line is the one it read, so it needs no rule of its
own on spaces, line ends, leading zeros, block order or unreduced words.
A document binds itself to a presentation via the SHA-256 digest of the
serialized alphabet plus the pulled-relator prefix it cites (``relators-used``
lines).  Equality documents carry the factor list; finiteness documents
carry the table, the image words, the coverage witnesses, and one nested
equality document per nonempty goal, at most one per cell or generator.
Documents and in-memory certificates hold the same fields and nothing
derivable: ``_lines`` renders each ``relators-used`` count from the factors
(``relators_used_by``), so a document that states another count is refused
by the parser, before any relator is pulled.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
from typing import Iterator, NamedTuple

from .certificates import (
    LETTERS_MODE, WORDS_MODE, DyckFactor, EqualityCertificate, FinitenessCertificate, MultiplicationTable,
)
from .presentation import Presentation, prefix_document
from .words import (
    Alphabet, MalformedWordError, Word, concat_all, conjugate, format_word, invert, is_word_over, parse_word,
    reduce_word,
)

MAX_RELATORS = 100_000  # the most relators a document may cite


class CertificateSyntaxError(ValueError):
    pass


def presentation_digest(p: Presentation, relator_count: int) -> str:
    """SHA-256 of the alphabet plus the first ``relator_count`` relators."""
    return hashlib.sha256(prefix_document(p, relator_count).encode()).hexdigest()


def relators_used_by(cert: EqualityCertificate) -> int:
    """Length of the relator prefix the factors cite: highest index plus one."""
    return max((f.relator_index for f in cert.factors), default=-1) + 1


def relators_used_by_finiteness(cert: FinitenessCertificate) -> int:
    nested = [*cert.equation_certs.values(), *cert.coverage_certs.values()]
    return max(map(relators_used_by, nested), default=0)


# ---------------------------------------------------------------------------
# canonical text


class EqualityDocument(NamedTuple):
    digest: str
    certificate: EqualityCertificate


class FinitenessDocument(NamedTuple):
    digest: str
    target: Word
    certificate: FinitenessCertificate
    equation_docs: dict
    coverage_docs: dict


def _lines(doc: EqualityDocument | FinitenessDocument, a: Alphabet) -> Iterator[str]:
    """The lines of a document's text, one at a time, with the digests it states.

    It must never raise on a parsed document: parsing renders what it read.
    """
    cert = doc.certificate
    if isinstance(doc, EqualityDocument):
        yield from [
            "certificate: equality",
            "presentation: " + doc.digest,
            "target: " + format_word(cert.target, a),
            f"relators-used: {relators_used_by(cert)}",
            f"factors: {len(cert.factors)}",
            *(f"factor: {format_word(f.conjugator, a)} {f.relator_index} {'+' if f.sign == 1 else '-'}"
              for f in cert.factors),
            "end: certificate",
        ]
        return
    yield from [
        "certificate: finiteness",
        "presentation: " + doc.digest,
        "target: " + format_word(doc.target, a),
        "tau-mode: " + cert.mode,
        f"relators-used: {relators_used_by_finiteness(cert)}",
        f"order: {cert.table.order}",
        *("row: " + " ".join(map(str, row)) for row in cert.table.cells),
        *("image: " + format_word(image, a) for image in cert.images),
        # By the map's own keys: a parsed map that names a generator twice is short.
        *(f"cover: {a.generators[g]} {e}" for g, e in sorted((cert.coverage or {}).items())),
        f"equation-certs: {len(doc.equation_docs)}",
    ]
    for (i, j), nested in sorted(doc.equation_docs.items()):
        yield from [f"cell: {i} {j}", *_lines(nested, a)]
    yield f"cover-certs: {len(doc.coverage_docs)}"
    for g, nested in sorted(doc.coverage_docs.items()):
        yield from [f"cover-cert: {a.generators[g]}", *_lines(nested, a)]
    yield "end: certificate"


def _text(doc: EqualityDocument | FinitenessDocument, a: Alphabet) -> str:
    return "\n".join(_lines(doc, a)) + "\n"


def _equality_document(cert: EqualityCertificate, digest) -> EqualityDocument:
    return EqualityDocument(digest(relators_used_by(cert)), cert)


def serialize_equality(cert: EqualityCertificate, p: Presentation) -> str:
    return _text(_equality_document(cert, functools.partial(presentation_digest, p)), p.alphabet)


def serialize_finiteness(cert: FinitenessCertificate, extended: Presentation) -> str:
    digest = functools.cache(functools.partial(presentation_digest, extended))  # hashes each count once
    doc = FinitenessDocument(
        digest(relators_used_by_finiteness(cert)), extended.extended_by, cert,
        {cell: _equality_document(nested, digest) for cell, nested in cert.equation_certs.items()},
        {g: _equality_document(nested, digest) for g, nested in cert.coverage_certs.items()},
    )
    return _text(doc, extended.alphabet)


class _Lines:
    def __init__(self, text: str):
        self.lines = text.split("\n")  # not splitlines(): a "\r" stays in its line, and the round trip refuses it
        self.pos = 0

    def expect(self, key: str, count: int) -> list[str]:
        """The ``count`` values of the next line, which must read ``key: values`` with single spaces."""
        if self.pos == len(self.lines):
            raise CertificateSyntaxError("unexpected end of certificate document")
        line = self.lines[self.pos]
        self.pos += 1
        if not line.startswith(key + ": "):
            raise CertificateSyntaxError(f"expected {key!r} line, got {line!r}")
        values = line[len(key) + 2:].split(" ")
        if len(values) != count:
            raise CertificateSyntaxError(f"expected {count} values in {key!r} line, got {line!r}")
        return values


def _natural(text: str) -> int:
    """A count or index in ASCII digits: no sign, ``_`` or other script's digits.

    ``int`` may be limited to 640 digits at the least, so a longer number is
    refused here rather than by ``int``; no count or index comes near it.
    """
    if not (text.isascii() and text.isdigit()) or len(text) > 640:
        raise CertificateSyntaxError(f"expected a natural number, got {text!r}")
    return int(text)


def _read(parse, *args):
    """parse(*args) on a word or generator name of the document; one the alphabet cannot spell is a syntax error."""
    try:
        return parse(*args)
    except MalformedWordError as e:
        raise CertificateSyntaxError(str(e)) from e


def _parse_equality_body(lines: _Lines, alphabet: Alphabet) -> EqualityDocument:
    [digest] = lines.expect("presentation", 1)
    target = _read(parse_word, lines.expect("target", 1)[0], alphabet)
    lines.expect("relators-used", 1)  # rendered from the factors, so the round trip checks it
    [count] = lines.expect("factors", 1)
    factors = []
    for _ in range(_natural(count)):
        conjugator, index, sign = lines.expect("factor", 3)
        factors.append(DyckFactor(_read(parse_word, conjugator, alphabet), _natural(index), 1 if sign == "+" else -1))
    lines.expect("end", 1)
    return EqualityDocument(digest, EqualityCertificate(tuple(factors), target))


def _parse_nested(lines: _Lines, alphabet: Alphabet, count_key: str, key: str, arity: int, parse_key) -> dict:
    """Nested equality documents by key; a key given twice is a syntax error."""
    docs = {}
    [count] = lines.expect(count_key, 1)
    for _ in range(_natural(count)):
        k = parse_key(*lines.expect(key, arity))
        if k in docs:
            raise CertificateSyntaxError(f"duplicate {key!r} block for {k!r}")
        lines.expect("certificate", 1)  # any kind but equality renders otherwise
        docs[k] = _parse_equality_body(lines, alphabet)
    return docs


def _parse_finiteness_body(lines: _Lines, alphabet: Alphabet) -> FinitenessDocument:
    [digest] = lines.expect("presentation", 1)
    target = _read(parse_word, lines.expect("target", 1)[0], alphabet)
    [mode] = lines.expect("tau-mode", 1)
    if mode not in (WORDS_MODE, LETTERS_MODE):
        raise CertificateSyntaxError(f"unknown tau-mode {mode!r}")
    lines.expect("relators-used", 1)
    order = _natural(lines.expect("order", 1)[0])
    if order < 1:
        raise CertificateSyntaxError("order must be >= 1")
    table = MultiplicationTable(tuple(tuple(map(_natural, lines.expect("row", order))) for _ in range(order)))
    images = tuple(_read(parse_word, lines.expect("image", 1)[0], alphabet) for _ in range(order))
    coverage = None
    if mode == WORDS_MODE:
        covers = [lines.expect("cover", 2) for _ in range(alphabet.k)]
        coverage = {_read(alphabet.index, name): _natural(element) for name, element in covers}
    equation_docs = _parse_nested(lines, alphabet, "equation-certs", "cell", 2, lambda i, j: (_natural(i), _natural(j)))
    coverage_docs = _parse_nested(lines, alphabet, "cover-certs", "cover-cert", 1, lambda g: _read(alphabet.index, g))
    lines.expect("end", 1)
    cert = FinitenessCertificate(
        table=table,
        images=images,
        mode=mode,
        coverage=coverage,
        equation_certs={cell: doc.certificate for cell, doc in equation_docs.items()},
        coverage_certs={g: doc.certificate for g, doc in coverage_docs.items()},
    )
    return FinitenessDocument(digest, target, cert, equation_docs, coverage_docs)


def parse_certificate(text: str, alphabet: Alphabet):
    """Parse a certificate document; returns an Equality/FinitenessDocument.

    The document must be the very text that its parse renders to, so each
    certificate, with its digests, has exactly one document, and a
    ``relators-used`` count other than the one its factors cite is refused here.
    """
    lines = _Lines(text)
    [kind] = lines.expect("certificate", 1)
    parse = {"equality": _parse_equality_body, "finiteness": _parse_finiteness_body}.get(kind)
    if parse is None:
        raise CertificateSyntaxError(f"unknown certificate kind {kind!r}")
    doc = parse(lines, alphabet)
    written = itertools.chain(_lines(doc, alphabet), [""])  # "\n" ends the text, so its split ends with ""
    if not all(line == read for line, read in itertools.zip_longest(written, lines.lines)):
        raise CertificateSyntaxError("document is not the canonical text of the certificate it states")
    return doc


# ---------------------------------------------------------------------------
# verification


def verify_equality(cert: EqualityCertificate, p: Presentation, x: Word) -> tuple[bool, str]:
    """Re-assemble the product and compare letter for letter with reduce(x)."""
    target = reduce_word(x)
    if cert.target != target:
        return False, "certificate target differs from the reduced input word"
    parts = []
    for n, f in enumerate(cert.factors):
        if f.sign not in (1, -1):
            return False, f"factor {n} has invalid sign {f.sign}"
        if not is_word_over(f.conjugator, p.alphabet):
            return False, f"factor {n} conjugator is not over the alphabet"
        if f.relator_index < 0:
            return False, f"factor {n} cites negative relator index"
        if f.relator_index >= MAX_RELATORS:
            return False, f"factor {n} cites relator {f.relator_index}, above the cap of {MAX_RELATORS}"
        rel = p.try_relator(f.relator_index)
        if rel is None:
            return False, f"factor {n} cites relator {f.relator_index} beyond the exhausted source"
        body = rel if f.sign == 1 else invert(rel)
        parts.append(conjugate(reduce_word(f.conjugator), body))
    if concat_all(parts) != target:
        return False, "assembled product does not reduce to the target"
    return True, "ok"


def verify_equality_document(doc: EqualityDocument, p: Presentation, x: Word) -> tuple[bool, str]:
    """Check the certificate, then the digest of the relator prefix its factors cite."""
    ok, why = verify_equality(doc.certificate, p, x)
    if ok and doc.digest != presentation_digest(p, relators_used_by(doc.certificate)):
        return False, "presentation digest mismatch"
    return ok, why


def _goal_label(key, a: Alphabet) -> str:
    return f"cell ({key[0]},{key[1]})" if isinstance(key, tuple) else f"generator {a.generators[key]}"


def verify_finiteness(cert: FinitenessCertificate, extended: Presentation) -> tuple[bool, str]:
    """Check the table's shape, the shape of tau, and every goal word.

    The table need not be a group's.  Let S = {[w_i]} in G1, w_i = images[i].
    The cell goals give [w_i][w_j] = [w_k], k = cells[i][j]; a finite
    nonempty subset of a group closed under products is a subgroup (s^a =
    s^b, a < b, puts 1 = s^(b-a) and s^-1 = s^(b-a-1) in it).  The coverage
    goals, or letters onto the generators, put each generator in S: G1 = S.

    A goal word that reduces to the empty word needs no derivation (the
    empty product derives it); every other goal must carry a nested
    equality certificate for exactly that word, valid over the extended
    presentation.  The nested certificates must be exactly those the
    nonempty goals need, so none goes unchecked.
    """
    if not extended.extended:
        return False, "presentation is not extended by a target word"
    a = extended.alphabet
    cells, r = cert.table.cells, cert.table.order
    if r < 1 or any(len(row) != r or min(row) < 0 or max(row) >= r for row in cells):
        return False, "table is not a nonempty square array over 0..order-1"
    images = cert.images
    if len(images) != r:
        return False, "image count differs from the table order"
    for i, w in enumerate(images):
        if not is_word_over(w, a):
            return False, f"image {i} is not over the alphabet"
        if reduce_word(w) != w:
            return False, f"image {i} is not reduced"
    if cert.mode == WORDS_MODE:
        if images[0] != b"":
            return False, "image of the identity element is not the empty word"
        if cert.coverage is None:
            return False, "words-mode certificate lacks a coverage map"
        for g in range(a.k):
            if g not in cert.coverage:
                return False, f"no coverage witness for generator {a.generators[g]}"
            if not 0 <= cert.coverage[g] < r:
                return False, f"coverage element for {a.generators[g]} out of range"
    elif cert.mode == LETTERS_MODE:
        if not all(len(w) == 1 and w[0] % 2 == 0 for w in images):
            return False, "letters-mode images must be single generator letters"
        if {w[0] // 2 for w in images} != set(range(a.k)):
            return False, "letters-mode images are not onto the generators"
    else:
        return False, f"unknown tau mode {cert.mode!r}"

    # Goals by key: (i, j) for a table cell, generator number g for a coverage goal.
    goals = {
        (i, j): concat_all((images[i], images[j], invert(images[k])))
        for i, row in enumerate(cells)
        for j, k in enumerate(row)
    }
    if cert.mode == WORDS_MODE:
        goals.update((g, concat_all((bytes([2 * g]), invert(images[cert.coverage[g]])))) for g in range(a.k))
    proofs = {**cert.equation_certs, **cert.coverage_certs}
    unexpected = proofs.keys() - {key for key, goal in goals.items() if goal}
    if unexpected:
        return False, f"unexpected certificates at {sorted(map(repr, unexpected))}"
    for key, goal in goals.items():
        if goal:
            if key not in proofs:
                return False, f"missing certificate for goal at {_goal_label(key, a)}"
            good, why = verify_equality(proofs[key], extended, goal)
            if not good:
                return False, f"certificate at {_goal_label(key, a)} invalid: {why}"
    return True, "ok"


def verify_finiteness_document(doc: FinitenessDocument, extended: Presentation) -> tuple[bool, str]:
    """Check the target, then the certificate, then every digest.

    Each digest is taken at the count its own factors cite; ``verify_finiteness``
    pulls no relator at or above MAX_RELATORS.
    """
    if extended.extended_by != doc.target:
        return False, "document target differs from the extension word"
    ok, why = verify_finiteness(doc.certificate, extended)
    if not ok:
        return ok, why
    digest = functools.cache(functools.partial(presentation_digest, extended))  # hashes each count once
    if doc.digest != digest(relators_used_by_finiteness(doc.certificate)):
        return False, "presentation digest mismatch"
    for key, inner in [*doc.equation_docs.items(), *doc.coverage_docs.items()]:
        if inner.digest != digest(relators_used_by(inner.certificate)):
            return False, f"certificate at {_goal_label(key, extended.alphabet)} invalid: presentation digest mismatch"
    return True, "ok"
