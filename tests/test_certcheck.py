"""Certificate round-trips, digest binding, and mutation resistance."""

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrace.certcheck import (
    CertificateSyntaxError,
    EqualityDocument,
    FinitenessDocument,
    parse_certificate,
    presentation_digest,
    relators_used_by,
    relators_used_by_finiteness,
    serialize_equality,
    serialize_finiteness,
    verify_equality,
    verify_equality_document,
    verify_finiteness,
    verify_finiteness_document,
)
from helpers import doubled, prove_equal, prove_finite, serialize_certificate
from wordrace import certcheck
from wordrace.tables import MultiplicationTable, is_group_table
from wordrace.derivation import DyckFactor, EqualityCertificate
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import LETTERS_MODE, WORDS_MODE, FinitenessCertificate
from wordrace.scheduler import EQUAL, NOT_EQUAL, solve
from wordrace.words import MalformedWordError, parse_word

DINF = "generators: a b\nrelator: aa\nrelator: bb\n"
D4 = "generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n"
Z = "generators: a\n"
M2 = "generators: a b c\nrelator: bb\nrelator: bC\n"


def dinf():
    return parse_presentation(DINF)


def z():
    return parse_presentation(Z)


@pytest.fixture(scope="module")
def equality_cert():
    p = dinf()
    cert = prove_equal(p, parse_word("abba", p.alphabet), 100_000)
    assert cert is not None
    return cert


@pytest.fixture(scope="module")
def finiteness_cert():
    extended = extend(z(), parse_word("aaa", z().alphabet))
    cert = prove_finite(extended, 300_000)
    assert cert is not None
    return cert


class TestEqualityVerification:
    def test_round_trip_object(self, equality_cert):
        p = dinf()
        ok, why = verify_equality(equality_cert, p, parse_word("abba", p.alphabet))
        assert ok, why

    def test_round_trip_document(self, equality_cert):
        p = dinf()
        text = serialize_equality(equality_cert, p)
        doc = parse_certificate(text, p.alphabet)
        assert isinstance(doc, EqualityDocument)
        assert doc.certificate.factors == equality_cert.factors
        ok, why = verify_equality_document(doc, dinf(), parse_word("abba", p.alphabet))
        assert ok, why
        assert serialize_equality(doc.certificate, dinf()) == text

    def test_sign_flip_rejected(self, equality_cert):
        p = dinf()
        f0 = equality_cert.factors[0]
        mutated = (DyckFactor(f0.conjugator, f0.relator_index, -f0.sign),) + equality_cert.factors[1:]
        bad = EqualityCertificate(mutated, equality_cert.target)
        ok, why = verify_equality(bad, p, equality_cert.target)
        assert not ok
        assert "assembled" in why

    def test_relator_index_beyond_source_rejected(self, equality_cert):
        p = dinf()
        f0 = equality_cert.factors[0]
        mutated = (DyckFactor(f0.conjugator, 7, f0.sign),) + equality_cert.factors[1:]
        bad = EqualityCertificate(mutated, equality_cert.target)
        ok, why = verify_equality(bad, p, equality_cert.target)
        assert not ok
        assert "exhausted" in why or "beyond" in why

    def test_wrong_target_rejected(self, equality_cert):
        p = dinf()
        ok, _ = verify_equality(equality_cert, p, parse_word("bb", p.alphabet))
        assert not ok

    def test_max_index_inconsistency_rejected(self):
        # The relator count a document states must be the factors' highest
        # index plus one: the parser renders each count from the factors, so
        # it refuses every other count, enclosing or nested, one at a time.
        forged_counts = 0
        for name, text in fuzz_documents().items():
            lines = text.split("\n")
            alphabet = parse_presentation(FUZZ_CASES[name][0]).alphabet
            for n, line in enumerate(lines):
                if line.startswith("relators-used: "):
                    used = int(line.partition(": ")[2])
                    for claimed in (used + 1, used - 1) if used else (used + 1,):
                        forged = "\n".join([*lines[:n], f"relators-used: {claimed}", *lines[n + 1:]])
                        with pytest.raises(CertificateSyntaxError, match="not the canonical text"):
                            parse_certificate(forged, alphabet)
                        forged_counts += 1
        assert forged_counts > 2 * len(FUZZ_CASES)

    def test_forged_relator_claim_pulls_nothing(self):
        # One factor citing relator 200000 under "relators-used: 1": the
        # parser renders the count from the factors and refuses the document,
        # so no relator is pulled.
        text = (
            "certificate: equality\n"
            f"presentation: {'0' * 64}\n"
            "target: aa\n"
            "relators-used: 1\n"
            "factors: 1\n"
            "factor:  200000 +\n"
            "end: certificate\n"
        )
        p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
        with pytest.raises(CertificateSyntaxError, match="not the canonical text"):
            parse_certificate(text, p.alphabet)
        assert p.source.pulled_count <= 1

    def test_relator_claim_above_the_cap_pulls_nothing(self):
        # A count the factors bear out, but above the cap: the factor is
        # rejected before its relator, or any before it, is pulled.
        text = (
            "certificate: equality\n"
            f"presentation: {'0' * 64}\n"
            "target: aa\n"
            "relators-used: 2000001\n"
            "factors: 1\n"
            "factor:  2000000 +\n"
            "end: certificate\n"
        )
        p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
        doc = parse_certificate(text, p.alphabet)
        ok, why = verify_equality_document(doc, p, parse_word("aa", p.alphabet))
        assert (ok, why) == (False, "factor 0 cites relator 2000000, above the cap of 100000")
        assert p.pulled_count == p.source.inline_count == 0

    def test_in_memory_relator_above_the_cap_pulls_nothing(self):
        # An in-memory certificate states no relators-used count, so the
        # cap applies to each factor's index before its relator is pulled.
        p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
        target = parse_word("aa", p.alphabet)
        before = p.pulled_count
        forged = EqualityCertificate((DyckFactor(b"", 400_000, 1),), target)
        ok, why = verify_equality(forged, p, target)
        assert (ok, why) == (False, "factor 0 cites relator 400000, above the cap of 100000")
        assert p.pulled_count == before
        ok, why = verify_equality(EqualityCertificate((DyckFactor(b"", -1, 1),), target), p, target)
        assert (ok, why) == (False, "factor 0 cites negative relator index")

    def test_nested_relator_above_the_cap_pulls_nothing(self):
        p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
        extended = extend(p, parse_word("abab", p.alphabet))
        cert = prove_finite(extended, 10_000)
        (cell, nested), *_ = sorted(cert.equation_certs.items())
        forged = cert._replace(equation_certs={
            **cert.equation_certs, cell: EqualityCertificate((DyckFactor(b"", 400_000, 1),), nested.target),
        })
        before = extended.pulled_count
        ok, why = verify_finiteness(forged, extended)
        assert not ok
        assert why.endswith("invalid: factor 0 cites relator 400000, above the cap of 100000")
        assert extended.pulled_count == before

    def test_finiteness_claim_above_the_cap_is_rejected(self, monkeypatch):
        p = parse_presentation(DINF)
        x = parse_word("abab", p.alphabet)
        extended = extend(p, x)
        doc = parse_certificate(serialize_finiteness(prove_finite(extended, 1000), extended), p.alphabet)
        assert relators_used_by_finiteness(doc.certificate) == 3
        monkeypatch.setattr(certcheck, "MAX_RELATORS", 3)
        assert verify_finiteness_document(doc, extended) == (True, "ok")
        monkeypatch.setattr(certcheck, "MAX_RELATORS", 2)
        ok, why = verify_finiteness_document(doc, extended)
        assert (ok, why) == (False, "certificate at cell (2,1) invalid: factor 2 cites relator 2, above the cap of 2")

    @pytest.mark.parametrize("index, why, pulled", [
        (999, "assembled product does not reduce to the target", 1000),
        (1000, "factor 0 cites relator 1000, above the cap of 1000", 0),
    ], ids=["below-the-cap", "at-the-cap"])
    def test_a_parsed_document_pulls_relators_below_the_cap_only(self, monkeypatch, index, why, pulled):
        # With no stated count left to check, the cap is the per-factor one,
        # applied before the factor's relator is pulled.
        monkeypatch.setattr(certcheck, "MAX_RELATORS", 1000)
        text = (
            "certificate: equality\n"
            f"presentation: {'0' * 64}\n"
            "target: aa\n"
            f"relators-used: {index + 1}\n"
            "factors: 1\n"
            f"factor:  {index} +\n"
            "end: certificate\n"
        )
        p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
        doc = parse_certificate(text, p.alphabet)
        assert verify_equality_document(doc, p, parse_word("aa", p.alphabet)) == (False, why)
        assert p.pulled_count == pulled

    def test_digest_binds_presentation(self, equality_cert):
        p = dinf()
        text = serialize_equality(equality_cert, p)
        doc = parse_certificate(text, p.alphabet)
        other = parse_presentation("generators: a b\nrelator: ab\nrelator: bb\n")
        ok, why = verify_equality_document(doc, other, equality_cert.target)
        assert not ok


class TestFinitenessVerification:
    def test_round_trip_object(self, finiteness_cert):
        extended = extend(z(), parse_word("aaa", z().alphabet))
        ok, why = verify_finiteness(finiteness_cert, extended)
        assert ok, why

    def test_round_trip_document(self, finiteness_cert):
        extended = extend(z(), parse_word("aaa", z().alphabet))
        text = serialize_finiteness(finiteness_cert, extended)
        doc = parse_certificate(text, extended.alphabet)
        assert isinstance(doc, FinitenessDocument)
        ok, why = verify_finiteness_document(doc, extend(z(), doc.target))
        assert ok, why
        assert serialize_finiteness(doc.certificate, extend(z(), doc.target)) == text

    def test_table_cell_mutation_rejected(self, finiteness_cert):
        from wordrace.tables import MultiplicationTable

        cells = [list(row) for row in finiteness_cert.table.cells]
        cells[1][1] = (cells[1][1] + 1) % finiteness_cert.table.order
        bad_table = MultiplicationTable(tuple(tuple(r) for r in cells))
        bad = FinitenessCertificate(
            table=bad_table,
            images=finiteness_cert.images,
            mode=finiteness_cert.mode,
            coverage=finiteness_cert.coverage,
            equation_certs=finiteness_cert.equation_certs,
            coverage_certs=finiteness_cert.coverage_certs,
        )
        extended = extend(z(), parse_word("aaa", z().alphabet))
        ok, why = verify_finiteness(bad, extended)
        assert not ok

    def test_nested_proof_mutation_rejected(self, finiteness_cert):
        extended = extend(z(), parse_word("aaa", z().alphabet))
        cell, cert = next(iter(finiteness_cert.equation_certs.items()))
        f0 = cert.factors[0]
        bad_factor = DyckFactor(f0.conjugator, f0.relator_index, -f0.sign)
        bad_nested = EqualityCertificate((bad_factor,) + cert.factors[1:], cert.target)
        equation_certs = dict(finiteness_cert.equation_certs)
        equation_certs[cell] = bad_nested
        bad = FinitenessCertificate(
            table=finiteness_cert.table,
            images=finiteness_cert.images,
            mode=finiteness_cert.mode,
            coverage=finiteness_cert.coverage,
            equation_certs=equation_certs,
            coverage_certs=finiteness_cert.coverage_certs,
        )
        ok, why = verify_finiteness(bad, extended)
        assert not ok
        assert "cell" in why

    def test_missing_equation_cert_rejected(self, finiteness_cert):
        extended = extend(z(), parse_word("aaa", z().alphabet))
        equation_certs = dict(finiteness_cert.equation_certs)
        equation_certs.pop(next(iter(equation_certs)))
        bad = FinitenessCertificate(
            table=finiteness_cert.table,
            images=finiteness_cert.images,
            mode=finiteness_cert.mode,
            coverage=finiteness_cert.coverage,
            equation_certs=equation_certs,
            coverage_certs=finiteness_cert.coverage_certs,
        )
        ok, why = verify_finiteness(bad, extended)
        assert not ok
        assert "missing" in why

    def test_nested_claim_above_enclosing_rejected(self, finiteness_cert):
        extended = extend(z(), parse_word("aaa", z().alphabet))
        text = serialize_finiteness(finiteness_cert, extended)
        enclosing, nested, rest = text.split("relators-used: 1\n", 2)
        forged = enclosing + "relators-used: 1\n" + nested + "relators-used: 2\n" + rest
        with pytest.raises(CertificateSyntaxError, match="not the canonical text"):
            parse_certificate(forged, extended.alphabet)

    def test_each_relator_prefix_is_hashed_once(self, monkeypatch):
        # Serializing and verifying a document hash the relator prefix once
        # per distinct relators-used count, not once per nested certificate.
        extended = extend(dinf(), parse_word("ab" * 8, dinf().alphabet))
        cert = prove_finite(extended, 100_000, max_table_order=16)
        nested = [*cert.equation_certs.values(), *cert.coverage_certs.values()]
        counts = sorted({relators_used_by_finiteness(cert), *map(relators_used_by, nested)})
        assert len(nested) > 2 * len(counts)
        hashed = []
        prefix_document = certcheck.prefix_document
        monkeypatch.setattr(certcheck, "prefix_document", lambda p, n: hashed.append(n) or prefix_document(p, n))
        text = serialize_finiteness(cert, extended)
        assert sorted(hashed) == counts
        hashed.clear()
        doc = parse_certificate(text, extended.alphabet)
        assert verify_finiteness_document(doc, extended) == (True, "ok")
        assert sorted(hashed) == counts

    def test_document_target_must_be_the_extension_word(self):
        p = dinf()
        doc = parse_certificate(fuzz_documents()["abab"], p.alphabet)
        ok, why = verify_finiteness_document(doc, extend(p, parse_word("ab", p.alphabet)))
        assert (ok, why) == (False, "document target differs from the extension word")

    def test_nested_digest_is_taken_at_its_own_count(self):
        # Cell (1,1) cites relators 0..1 and the enclosing document 0..2, so
        # the enclosing digest is the wrong one for the nested block.
        p = dinf()
        text = fuzz_documents()["abab"]
        enclosing = re.search(r"^presentation: (\w+)$", text, re.M)[1]
        head, cell, rest = text.partition("\ncell: 1 1\ncertificate: equality\n")
        forged = head + cell + re.sub(r"^presentation: \w+$", f"presentation: {enclosing}", rest, count=1, flags=re.M)
        assert forged != text
        doc = parse_certificate(forged, p.alphabet)
        ok, why = verify_finiteness_document(doc, extend(p, parse_word("abab", p.alphabet)))
        assert (ok, why) == (False, "certificate at cell (1,1) invalid: presentation digest mismatch")

    def test_requires_extended_presentation(self, finiteness_cert):
        ok, why = verify_finiteness(finiteness_cert, z())
        assert not ok

    def test_letters_mode_rejects_coverage_certificates(self):
        # Letters mode has no coverage goals, so a cover-cert block is never
        # checked; it must be refused, or its factors would set the
        # enclosing relators-used count unseen.
        p = parse_presentation(D4)
        extended = extend(p, parse_word("a", p.alphabet))
        cert = solve(p, parse_word("a", p.alphabet), tau_mode=LETTERS_MODE).certificate
        assert cert.mode == LETTERS_MODE
        extra = EqualityCertificate((DyckFactor(b"", 3, 1),), parse_word("abab", p.alphabet))
        forged = FinitenessCertificate(
            table=cert.table,
            images=cert.images,
            mode=cert.mode,
            coverage=cert.coverage,
            equation_certs=cert.equation_certs,
            coverage_certs={0: extra},
        )
        assert verify_finiteness(cert, extended) == (True, "ok")
        ok, why = verify_finiteness(forged, extended)
        assert not ok and "unexpected" in why
        doc = parse_certificate(serialize_finiteness(forged, extended), p.alphabet)
        assert relators_used_by_finiteness(doc.certificate) == 4
        ok, why = verify_finiteness_document(doc, extended)
        assert not ok and "unexpected" in why


SHAPE = "table is not a nonempty square array over 0..order-1"


class TestTrustedBaseRejections:
    """Forged in-memory certificates: each is refused with its exact reason."""

    @pytest.mark.parametrize("factor, why", [
        (DyckFactor(b"", 0, 0), "factor 0 has invalid sign 0"),
        (DyckFactor(bytes([4]), 0, 1), "factor 0 conjugator is not over the alphabet"),  # DINF has letters 0..3
    ], ids=["sign-0", "foreign-conjugator"])
    def test_forged_equality_factor(self, equality_cert, factor, why):
        p = dinf()
        bad = EqualityCertificate((factor,) + equality_cert.factors[1:], equality_cert.target)
        assert verify_equality(bad, p, parse_word("abba", p.alphabet)) == (False, why)

    @pytest.mark.parametrize("forge, why", [
        (lambda c: c._replace(images=c.images[:-1]), "image count differs from the table order"),
        (lambda c: c._replace(images=c.images[:1] + (bytes([0, 1]),) + c.images[2:]), "image 1 is not reduced"),
        (lambda c: c._replace(coverage=None), "words-mode certificate lacks a coverage map"),
        (lambda c: c._replace(coverage={}), "no coverage witness for generator a"),
        (lambda c: c._replace(mode="foo"), "unknown tau mode 'foo'"),
        (lambda c: c._replace(table=MultiplicationTable(((0, 1, 3),) + c.table.cells[1:])), SHAPE),
        (lambda c: c._replace(table=MultiplicationTable(c.table.cells[:2] + (c.table.cells[2][:2],))), SHAPE),
        (lambda c: c._replace(table=MultiplicationTable(())), SHAPE),
    ], ids=["image-dropped", "image-aA", "no-coverage", "coverage-empty", "mode-foo", "cell-at-order", "row-ragged",
            "table-empty"])
    def test_forged_finiteness_certificate(self, finiteness_cert, forge, why):
        assert finiteness_cert.mode == WORDS_MODE
        extended = extend(z(), parse_word("aaa", z().alphabet))
        assert verify_finiteness(forge(finiteness_cert), extended) == (False, why)


# name -> (presentation, word, tau mode, order of the doubled table)
DOUBLED_CASES = {
    "dinf-ababab": (DINF, "ababab", WORDS_MODE, 12),
    "m2-a-letters": (M2, "a", LETTERS_MODE, 8),
}


class TestClosedTables:
    """The verifier asks of a table only that its goals hold, not that it is a group's."""

    @pytest.mark.parametrize("case", sorted(DOUBLED_CASES))
    def test_a_doubled_certificate_verifies(self, case):
        text, word, mode, order = DOUBLED_CASES[case]
        p = parse_presentation(text)
        x = parse_word(word, p.alphabet)
        cert = doubled(solve(p, x, tau_mode=mode).certificate)
        assert (cert.mode, cert.table.order) == (mode, order)
        assert is_group_table(cert.table.cells) == (False, "identity row violated at column 0")
        assert verify_finiteness(cert, extend(p, x)) == (True, "ok")
        doc = parse_certificate(serialize_finiteness(cert, extend(p, x)), p.alphabet)
        assert doc.certificate == cert
        assert verify_finiteness_document(doc, extend(parse_presentation(text), doc.target)) == (True, "ok")


def swap_first_cell_blocks(text):
    first, second = re.findall(r"cell: .*?end: certificate\n", text, re.S)[:2]
    return text.replace(first + second, second + first)


class TestDocumentParsing:
    def test_rejects_unknown_kind(self):
        with pytest.raises(CertificateSyntaxError):
            parse_certificate("certificate: zero-knowledge\n", dinf().alphabet)

    def test_rejects_truncated(self, equality_cert):
        p = dinf()
        text = serialize_equality(equality_cert, p)
        with pytest.raises(CertificateSyntaxError):
            parse_certificate(text.rsplit("factor:", 1)[0], p.alphabet)

    def test_empty_conjugator_round_trips(self):
        p = parse_presentation("generators: a\nrelator: aaa\n")
        cert = prove_equal(p, parse_word("aaa", p.alphabet), 1000)
        assert cert.factors[0].conjugator == b""
        text = serialize_equality(cert, p)
        doc = parse_certificate(text, p.alphabet)
        assert doc.certificate.factors == cert.factors

    def test_digest_is_prefix_hash(self):
        p = dinf()
        assert presentation_digest(p, 2) == presentation_digest(dinf(), 2)
        assert presentation_digest(p, 1) != presentation_digest(p, 2)

    def test_rejects_duplicate_nested_block(self):
        # A second block for the same cell would replace the first, so one of
        # the two would never be verified.
        p = dinf()
        text = fuzz_documents()["abab"]
        head, count, rest = text.partition("equation-certs: ")
        n, _, blocks = rest.partition("\n")
        first = blocks[: blocks.index("end: certificate\n") + len("end: certificate\n")]
        assert first.startswith("cell: ")
        forged = f"{head}{count}{int(n) + 1}\n{first}{blocks}"
        with pytest.raises(CertificateSyntaxError, match="duplicate"):
            parse_certificate(forged, p.alphabet)

    @pytest.mark.parametrize("name, line, forged", [
        # range(-1) is empty, so a negative count would read zero blocks.
        ("abab", "cover-certs: 0", "cover-certs: -1"),
        ("abab", "cover-certs: 0", "cover-certs: +0"),
        ("abab", "equation-certs: 8", "equation-certs: ٨"),  # Arabic-Indic 8
        ("abab", "relators-used: 3", "relators-used: +3"),
        ("abab", "order: 4", "order: +4"),
        ("abab", "order: 4", "order: 0"),
        ("abab", "row: 0 1 2 3", "row: 0 +1 2 3"),
        ("abab", "cover: a 1", "cover: a +1"),
        ("abab", "cell: 1 1", "cell: 1 -0"),
        ("abba", "relators-used: 2", "relators-used: ٢"),  # Arabic-Indic 2
        ("abba", "factors: 2", "factors: +2"),
        ("abba", "factors: 2", "factors: 0_2"),
        ("abba", "factor: a 1 +", "factor: a +1 +"),
        ("abba", "factor: a 1 +", "factor: a 1_0 +"),
        # A leading zero would give one certificate a second document.
        ("abab", "order: 4", "order: 04"),
        ("abab", "relators-used: 3", "relators-used: 03"),
        ("abab", "cell: 1 1", "cell: 01 1"),
        ("abba", "factor: a 1 +", "factor: a 01 +"),
    ])
    def test_rejects_counts_and_indices_not_in_ascii_digits(self, name, line, forged):
        text = fuzz_documents()[name]
        assert f"\n{line}\n" in text
        p = dinf()
        with pytest.raises(CertificateSyntaxError):
            parse_certificate(text.replace(f"\n{line}\n", f"\n{forged}\n", 1), p.alphabet)

    @pytest.mark.parametrize("name, line, forged", [
        ("abba", "target: abba", "target: abza"),
        ("abba", "target: abba", "target: ab9a"),
        ("abba", "factor: a 1 +", "factor: za 1 +"),
        ("abab", "cover: a 1", "cover: z 1"),
        ("abab", "image: a", "image: z"),
        ("abab", "cover-certs: 0", "cover-certs: 1\ncover-cert: z"),
    ])
    def test_rejects_a_word_or_generator_name_outside_the_alphabet(self, name, line, forged):
        text = fuzz_documents()[name]
        assert f"\n{line}\n" in text
        with pytest.raises(CertificateSyntaxError) as caught:
            parse_certificate(text.replace(f"\n{line}\n", f"\n{forged}\n", 1), dinf().alphabet)
        assert isinstance(caught.value.__cause__, MalformedWordError)

    @pytest.mark.parametrize("line, forged", [
        ("cell: 1 1", "cell: 1 1 1"),
        ("cell: 1 1", "cell: 1"),
        ("cover: a 1", "cover: a"),
        ("cover: a 1", "cover: a 1 2"),
    ])
    def test_rejects_a_pair_line_with_another_number_of_values(self, line, forged):
        text = fuzz_documents()["abab"]
        assert f"\n{line}\n" in text
        key = line.partition(":")[0]
        with pytest.raises(CertificateSyntaxError, match=key):
            parse_certificate(text.replace(f"\n{line}\n", f"\n{forged}\n", 1), dinf().alphabet)

    @pytest.mark.parametrize("name, respell", [
        ("abab", lambda t: t.replace("\nrow: 0 1 2 3\n", "\nrow: 0  1 2 3\n")),
        ("abab", lambda t: t.replace("\ncover: a 1\n", "\n  cover: a 1\n")),
        ("abab", lambda t: t.replace("\norder: 4\n", "\norder: 4\n\n")),
        ("abab", lambda t: t.replace("\n", "\r\n")),
        ("abab", lambda t: t[:-1]),
        ("abab", lambda t: t + "\n"),
        ("abab", swap_first_cell_blocks),
        ("abba", lambda t: t.replace("\ntarget: abba\n", "\ntarget: abbaaA\n")),
        ("abba", lambda t: t.replace("\nfactor:  0 +\n", "\nfactor: 0 +\n")),
    ], ids=["double-space", "indent", "blank-line", "crlf", "no-final-newline", "trailing-blank-line",
            "cells-swapped", "unreduced-target", "one-space-empty-conjugator"])
    def test_refuses_every_spelling_but_the_written_one(self, name, respell):
        # Each of these states a certificate that verifies in its written form.
        text = fuzz_documents()[name]
        forged = respell(text)
        assert forged != text
        with pytest.raises(CertificateSyntaxError):
            parse_certificate(forged, dinf().alphabet)

    def test_refuses_a_count_too_long_for_int(self):
        # int() refuses more than 4,300 digits by default, with a bare ValueError.
        text = fuzz_documents()["abba"]
        forged = text.replace("\nfactors: 2\n", f"\nfactors: {'1' * 5000}\n")
        assert forged != text
        with pytest.raises(CertificateSyntaxError, match="natural number"):
            parse_certificate(forged, dinf().alphabet)


# name -> (presentation, word, tau mode, the word's verdict)
FUZZ_CASES = {
    "abba": (DINF, "abba", WORDS_MODE, EQUAL),
    "abab": (DINF, "abab", WORDS_MODE, NOT_EQUAL),  # by the Klein group
    "d4-a": (D4, "a", LETTERS_MODE, NOT_EQUAL),  # by Z/2, letters mode
    "m2-a": (M2, "a", LETTERS_MODE, NOT_EQUAL),  # by Z/2 x Z/2: the class of b and c has two generators
    "m2-words": (M2, "a", WORDS_MODE, NOT_EQUAL),  # by Z/2, with cover-cert: blocks for a and c
    # Coset-enumeration certificates with shortened edge proofs.
    "abAB": (DINF, "abAB", WORDS_MODE, NOT_EQUAL),  # order 4
    "ababab": (DINF, "ababab", WORDS_MODE, NOT_EQUAL),  # order 6
    "z-a8": (Z, "aaaaaaaa", WORDS_MODE, NOT_EQUAL),  # order 8
}


@functools.cache
def fuzz_documents():
    """The serialized certificate of each fuzz case."""
    out = {}
    for name, (text, word, mode, verdict) in FUZZ_CASES.items():
        p = parse_presentation(text)
        x = parse_word(word, p.alphabet)
        result = solve(p, x, tau_mode=mode)
        assert result.verdict == verdict
        out[name] = serialize_certificate(result.certificate, extend(p, x) if verdict == NOT_EQUAL else p)
    return out


def mutate(text, ops):
    """Apply (operation, position, argument) edits to a document, in order."""
    for op, pos, arg in ops:
        lines = text.splitlines(keepends=True)
        if op == "delete" and lines:
            del lines[pos % len(lines)]
        elif op == "duplicate" and lines:
            i = pos % len(lines)
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines = [text[: pos % (len(text) + 1)]]
        elif op == "edit" and text:
            i = pos % len(text)
            lines = [text[:i], arg, text[i + 1:]]
        elif op == "edit-value" and lines:
            # Swap a digit for a digit or a letter for a letter in the value
            # of a line picked by its key, so that the document mostly still
            # parses and the verifier sees every kind of field damaged.
            by_key = {}
            for n, line in enumerate(lines):
                by_key.setdefault(line.partition(":")[0], []).append(n)
            same_key = list(by_key.values())[arg % len(by_key)]
            n = same_key[pos % len(same_key)]
            key, sep, value = lines[n].rstrip("\n").partition(": ")
            if sep and value:
                i = pos % len(value)
                pick = arg // len(by_key)
                c = "0129"[pick % 4] if value[i].isdigit() else "abAB"[pick % 4] if value[i].isalpha() else value[i]
                lines[n] = key + sep + value[:i] + c + value[i + 1:] + "\n"
        text = "".join(lines)
    return text


POSITIONS = st.integers(min_value=0, max_value=10**6)
# Any damage at all, or only value edits, which more often reach the verifier.
MUTATIONS = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(["delete", "duplicate", "truncate", "edit"]), POSITIONS,
                  st.sampled_from("abABx0129+-: \n")),
        min_size=1, max_size=3,
    ),
    st.lists(st.tuples(st.just("edit-value"), POSITIONS, POSITIONS), min_size=1, max_size=3),
)


class TestDocumentFuzzing:
    def test_some_document_has_a_nested_coverage_certificate(self):
        # Otherwise no mutation lands in a cover-cert: block.
        assert any("\ncover-cert:" in doc for doc in fuzz_documents().values())

    @settings(max_examples=2400, deadline=None, derandomize=True)
    @given(case=st.sampled_from(sorted(FUZZ_CASES)), ops=MUTATIONS)
    def test_mutated_documents_fail_only_as_rejections(self, case, ops):
        # A damaged document is rejected, or parsed and then verified or
        # rejected; no other exception may escape.  One that verifies must
        # certify the word's known verdict.
        text, word, _, verdict = FUZZ_CASES[case]
        p = parse_presentation(text)
        x = parse_word(word, p.alphabet)
        try:
            doc = parse_certificate(mutate(fuzz_documents()[case], ops), p.alphabet)
            if isinstance(doc, EqualityDocument):
                ok, why = verify_equality_document(doc, p, x)
                certified = EQUAL
            else:
                ok, why = verify_finiteness_document(doc, extend(p, x))
                certified = NOT_EQUAL
        except CertificateSyntaxError:
            return
        assert not ok or certified == verdict, why
