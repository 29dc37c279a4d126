"""Independent verifier and canonical text form for both certificate kinds.

The verifier is straight-line by design: it re-pulls the cited relators,
re-assembles products with fresh reductions, and compares letters, sharing
only the word and table primitives with the provers.  No search code runs
here, so a prover bug cannot certify itself.  A claimed relator count is
compared with the factors before any relator is pulled, so a document
cannot make the verifier pull more relators than its factors cite.

Certificate documents are canonical text: fixed field order, compact word
format, newline-terminated.  A document binds itself to a presentation via
the SHA-256 digest of the serialized alphabet plus the pulled-relator
prefix it cites (``relators-used`` lines).  Equality documents carry the
factor list; finiteness documents carry the table, the image words, the
coverage witnesses, and one nested equality document per nonempty goal.
The in-memory certificates hold the same fields and nothing derivable:
the ``relators-used`` count of a document is worked out from the factors,
here and only here, by ``relators_used_by``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .derivation import DyckFactor, EqualityCertificate
from .presentation import Presentation, prefix_document
from .quotient import LETTERS_MODE, WORDS_MODE, FinitenessCertificate
from .tables import MultiplicationTable, is_group_table
from .words import Alphabet, Word, concat_all, conjugate, format_word, invert, parse_word, reduce_word


class CertificateSyntaxError(ValueError):
    pass


def presentation_digest(p: Presentation, relator_count: int) -> str:
    """SHA-256 of the alphabet plus the first ``relator_count`` relators."""
    return hashlib.sha256(prefix_document(p, relator_count).encode()).hexdigest()


def relators_used_by(cert: EqualityCertificate) -> int:
    """Length of the relator prefix the factors cite: highest index plus one."""
    return max((f.relator_index for f in cert.factors), default=-1) + 1


def relators_used_by_finiteness(cert: FinitenessCertificate) -> int:
    used = [relators_used_by(c) for c in cert.equation_certs.values()]
    used += [relators_used_by(c) for c in cert.coverage_certs.values()]
    return max(used, default=0)


# ---------------------------------------------------------------------------
# serialization


def _equality_lines(cert: EqualityCertificate, p: Presentation, out: list[str]) -> None:
    a = p.alphabet
    out.append("certificate: equality")
    out.append("presentation: " + presentation_digest(p, relators_used_by(cert)))
    out.append("target: " + format_word(cert.target, a))
    out.append(f"relators-used: {relators_used_by(cert)}")
    out.append(f"factors: {len(cert.factors)}")
    for f in cert.factors:
        sign = "+" if f.sign == 1 else "-"
        out.append(f"factor: {format_word(f.conjugator, a)} {f.relator_index} {sign}")
    out.append("end: certificate")


def serialize_equality(cert: EqualityCertificate, p: Presentation) -> str:
    lines: list[str] = []
    _equality_lines(cert, p, lines)
    return "\n".join(lines) + "\n"


def serialize_finiteness(cert: FinitenessCertificate, extended: Presentation) -> str:
    a = extended.alphabet
    r = cert.table.order
    out: list[str] = []
    out.append("certificate: finiteness")
    out.append("presentation: " + presentation_digest(extended, relators_used_by_finiteness(cert)))
    out.append("target: " + format_word(extended.extended_by, a))
    out.append("tau-mode: " + cert.mode)
    out.append(f"relators-used: {relators_used_by_finiteness(cert)}")
    out.append(f"order: {r}")
    for row in cert.table.cells:
        out.append("row: " + " ".join(str(v) for v in row))
    for image in cert.images:
        out.append("image: " + format_word(image, a))
    if cert.mode == WORDS_MODE:
        for g in range(a.k):
            out.append(f"cover: {a.generators[g]} {cert.coverage[g]}")
    cells = sorted(cert.equation_certs)
    out.append(f"equation-certs: {len(cells)}")
    for i, j in cells:
        out.append(f"cell: {i} {j}")
        _equality_lines(cert.equation_certs[(i, j)], extended, out)
    gens = sorted(cert.coverage_certs)
    out.append(f"cover-certs: {len(gens)}")
    for g in gens:
        out.append(f"cover-cert: {a.generators[g]}")
        _equality_lines(cert.coverage_certs[g], extended, out)
    out.append("end: certificate")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class EqualityDocument:
    digest: str
    relators_used: int
    certificate: EqualityCertificate


@dataclass(frozen=True)
class FinitenessDocument:
    digest: str
    relators_used: int
    target: Word
    certificate: FinitenessCertificate
    equation_docs: dict
    coverage_docs: dict


class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return line.strip()
        raise CertificateSyntaxError("unexpected end of certificate document")

    def expect(self, key: str) -> str:
        line = self.next()
        prefix = key + ":"
        if not line.startswith(prefix):
            raise CertificateSyntaxError(f"expected {key!r} line, got {line!r}")
        return line[len(prefix):].strip()


def _parse_equality_body(lines: _Lines, alphabet: Alphabet) -> EqualityDocument:
    digest = lines.expect("presentation")
    target = parse_word(lines.expect("target"), alphabet)
    relators_used = int(lines.expect("relators-used"))
    count = int(lines.expect("factors"))
    factors = []
    for _ in range(count):
        rest = lines.expect("factor")
        tokens = rest.split()
        if len(tokens) == 2:
            conj_text, idx_text, sign_text = "", tokens[0], tokens[1]
        elif len(tokens) == 3:
            conj_text, idx_text, sign_text = tokens
        else:
            raise CertificateSyntaxError(f"bad factor line {rest!r}")
        if sign_text not in ("+", "-"):
            raise CertificateSyntaxError(f"bad sign {sign_text!r}")
        factors.append(
            DyckFactor(
                parse_word(conj_text, alphabet),
                int(idx_text),
                1 if sign_text == "+" else -1,
            )
        )
    end = lines.next()
    if end != "end: certificate":
        raise CertificateSyntaxError(f"expected end of certificate, got {end!r}")
    return EqualityDocument(digest, relators_used, EqualityCertificate(tuple(factors), target))


def _parse_finiteness_body(lines: _Lines, alphabet: Alphabet) -> FinitenessDocument:
    digest = lines.expect("presentation")
    target = parse_word(lines.expect("target"), alphabet)
    mode = lines.expect("tau-mode")
    if mode not in (WORDS_MODE, LETTERS_MODE):
        raise CertificateSyntaxError(f"unknown tau-mode {mode!r}")
    relators_used = int(lines.expect("relators-used"))
    order = int(lines.expect("order"))
    if order < 1:
        raise CertificateSyntaxError("order must be >= 1")
    cells = []
    for _ in range(order):
        row = tuple(int(v) for v in lines.expect("row").split())
        if len(row) != order:
            raise CertificateSyntaxError("row length does not match order")
        cells.append(row)
    table = MultiplicationTable(tuple(cells))
    images = tuple(parse_word(lines.expect("image"), alphabet) for _ in range(order))
    coverage = None
    if mode == WORDS_MODE:
        coverage = {}
        for _ in range(alphabet.k):
            name, element = lines.expect("cover").split()
            coverage[alphabet.index(name)] = int(element)
    eq_count = int(lines.expect("equation-certs"))
    equation_docs = {}
    equation_certs = {}
    for _ in range(eq_count):
        i, j = (int(v) for v in lines.expect("cell").split())
        kind = lines.expect("certificate")
        if kind != "equality":
            raise CertificateSyntaxError("nested certificate must be an equality certificate")
        doc = _parse_equality_body(lines, alphabet)
        equation_docs[(i, j)] = doc
        equation_certs[(i, j)] = doc.certificate
    cov_count = int(lines.expect("cover-certs"))
    coverage_docs = {}
    coverage_certs = {}
    for _ in range(cov_count):
        name = lines.expect("cover-cert")
        kind = lines.expect("certificate")
        if kind != "equality":
            raise CertificateSyntaxError("nested certificate must be an equality certificate")
        doc = _parse_equality_body(lines, alphabet)
        g = alphabet.index(name)
        coverage_docs[g] = doc
        coverage_certs[g] = doc.certificate
    end = lines.next()
    if end != "end: certificate":
        raise CertificateSyntaxError(f"expected end of certificate, got {end!r}")
    cert = FinitenessCertificate(
        table=table,
        images=images,
        mode=mode,
        coverage=coverage,
        equation_certs=equation_certs,
        coverage_certs=coverage_certs,
    )
    return FinitenessDocument(digest, relators_used, target, cert, equation_docs, coverage_docs)


def parse_certificate(text: str, alphabet: Alphabet):
    """Parse a certificate document; returns an Equality/FinitenessDocument."""
    lines = _Lines(text)
    kind = lines.expect("certificate")
    if kind == "equality":
        return _parse_equality_body(lines, alphabet)
    if kind == "finiteness":
        return _parse_finiteness_body(lines, alphabet)
    raise CertificateSyntaxError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# verification


def verify_equality(
    cert: EqualityCertificate,
    p: Presentation,
    x: Word,
    claimed_digest: str | None = None,
    claimed_relators_used: int | None = None,
) -> tuple[bool, str]:
    """Re-assemble the product and compare letter for letter with reduce(x)."""
    target = reduce_word(x)
    if cert.target != target:
        return False, "certificate target differs from the reduced input word"
    used = relators_used_by(cert)
    if claimed_relators_used is not None and claimed_relators_used != used:
        return False, "relators-used differs from the cited factors"
    bound = 2 * p.alphabet.k
    parts = []
    for n, f in enumerate(cert.factors):
        if f.sign not in (1, -1):
            return False, f"factor {n} has invalid sign {f.sign}"
        if any(not 0 <= letter < bound for letter in f.conjugator):
            return False, f"factor {n} conjugator is not over the alphabet"
        if f.relator_index < 0:
            return False, f"factor {n} cites negative relator index"
        rel = p.try_relator(f.relator_index)
        if rel is None:
            return False, f"factor {n} cites relator {f.relator_index} beyond the exhausted source"
        body = rel if f.sign == 1 else invert(rel)
        parts.append(conjugate(reduce_word(f.conjugator), body))
    assembled = concat_all(parts)
    if assembled != target:
        return False, "assembled product does not reduce to the target"
    if claimed_digest is not None and claimed_digest != presentation_digest(p, used):
        return False, "presentation digest mismatch"
    return True, "ok"


def verify_equality_document(doc: EqualityDocument, p: Presentation, x: Word) -> tuple[bool, str]:
    return verify_equality(
        doc.certificate, p, x,
        claimed_digest=doc.digest,
        claimed_relators_used=doc.relators_used,
    )


def _single_positive_letter(w: Word, k: int) -> bool:
    return len(w) == 1 and w[0] % 2 == 0 and w[0] // 2 < k


def verify_finiteness(
    cert: FinitenessCertificate,
    extended: Presentation,
    claimed_digest: str | None = None,
    claimed_relators_used: int | None = None,
    equation_docs=None,
    coverage_docs=None,
) -> tuple[bool, str]:
    """Check the table axioms, the shape of tau, and every goal word.

    A goal word that reduces to the empty word needs no derivation (the
    empty product derives it); every other goal must carry a nested
    equality certificate for exactly that word, valid over the extended
    presentation.  Relator claims are checked before any goal, so a nested
    certificate cannot pull relators beyond the enclosing claim.
    """
    if not extended.extended:
        return False, "presentation is not extended by a target word"
    used = relators_used_by_finiteness(cert)
    if claimed_relators_used is not None:
        if claimed_relators_used != used:
            return False, "relators-used differs from the nested certificates"
        nested = [*(equation_docs or {}).values(), *(coverage_docs or {}).values()]
        if any(doc.relators_used > used for doc in nested):
            return False, "a nested certificate claims more relators than the enclosing one"
    a = extended.alphabet
    table = cert.table
    ok, why = is_group_table(table.cells)
    if not ok:
        return False, f"not a group table: {why}"
    images = cert.images
    if len(images) != table.order:
        return False, "image count differs from the table order"
    bound = 2 * a.k
    for i, w in enumerate(images):
        if any(not 0 <= letter < bound for letter in w):
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
            if not 0 <= cert.coverage[g] < table.order:
                return False, f"coverage element for {a.generators[g]} out of range"
    elif cert.mode == LETTERS_MODE:
        if not all(_single_positive_letter(w, a.k) for w in images):
            return False, "letters-mode images must be single generator letters"
        if {w[0] // 2 for w in images} != set(range(a.k)):
            return False, "letters-mode images are not onto the generators"
    else:
        return False, f"unknown tau mode {cert.mode!r}"

    def check_goal(goal: Word, nested: EqualityCertificate | None, doc, label: str):
        if goal == b"":
            if nested is not None:
                return False, f"unexpected certificate for trivial goal at {label}"
            return True, "ok"
        if nested is None:
            return False, f"missing certificate for goal at {label}"
        if nested.target != goal:
            return False, f"certificate at {label} proves the wrong word"
        if doc is not None:
            good, why2 = verify_equality_document(doc, extended, goal)
        else:
            good, why2 = verify_equality(nested, extended, goal)
        if not good:
            return False, f"certificate at {label} invalid: {why2}"
        return True, "ok"

    cells = table.cells
    goals = {
        (i, j): concat_all((images[i], images[j], invert(images[k])))
        for i, row in enumerate(cells)
        for j, k in enumerate(row)
    }
    for (i, j), goal in goals.items():
        nested = cert.equation_certs.get((i, j))
        doc = equation_docs.get((i, j)) if equation_docs is not None else None
        good, why = check_goal(goal, nested, doc, f"cell ({i},{j})")
        if not good:
            return False, why
    extra = set(cert.equation_certs) - {cell for cell, goal in goals.items() if goal != b""}
    if extra:
        return False, f"unexpected equation certificates at {sorted(extra)}"

    if cert.mode == WORDS_MODE:
        for g in range(a.k):
            goal = concat_all((bytes([2 * g]), invert(images[cert.coverage[g]])))
            nested = cert.coverage_certs.get(g)
            doc = coverage_docs.get(g) if coverage_docs is not None else None
            good, why = check_goal(goal, nested, doc, f"generator {a.generators[g]}")
            if not good:
                return False, why

    if claimed_digest is not None and claimed_digest != presentation_digest(extended, used):
        return False, "presentation digest mismatch"
    return True, "ok"


def verify_finiteness_document(doc: FinitenessDocument, extended: Presentation) -> tuple[bool, str]:
    if extended.extended_by != doc.target:
        return False, "document target differs from the extension word"
    return verify_finiteness(
        doc.certificate, extended,
        claimed_digest=doc.digest,
        claimed_relators_used=doc.relators_used,
        equation_docs=doc.equation_docs,
        coverage_docs=doc.coverage_docs,
    )
