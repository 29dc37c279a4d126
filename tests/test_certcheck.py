"""Certificate round-trips, digest binding, and mutation resistance."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrace.certcheck import (
    CertificateSyntaxError,
    EqualityDocument,
    FinitenessDocument,
    parse_certificate,
    presentation_digest,
    serialize_equality,
    serialize_finiteness,
    verify_equality,
    verify_equality_document,
    verify_finiteness,
    verify_finiteness_document,
)
from helpers import prove_equal, prove_finite, serialize_certificate
from wordrace import certcheck
from wordrace.certificates import is_group_table
from wordrace.derivation import DyckFactor, EqualityCertificate
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import LETTERS_MODE, WORDS_MODE, FinitenessCertificate
from wordrace.scheduler import EQUAL, NOT_EQUAL, solve
from wordrace.words import parse_word

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

    def test_max_index_inconsistency_rejected(self, equality_cert):
        # The relator count a document states must be the factors' highest
        # index plus one.
        p = dinf()
        used = max(f.relator_index for f in equality_cert.factors) + 1
        for claimed in (used - 1, used + 1):
            doc = EqualityDocument("0" * 64, claimed, equality_cert)
            ok, why = verify_equality_document(doc, p, equality_cert.target)
            assert not ok
            assert "relators-used" in why

    def test_forged_relator_claim_pulls_nothing(self):
        # One factor citing relator 200000 under "relators-used: 1": the
        # claim is checked against the factors before any relator is pulled.
        text = (
            "certificate: equality\n"
            f"presentation: {'0' * 64}\n"
            "target: aa\n"
            "relators-used: 1\n"
            "factors: 1\n"
            "factor: 200000 +\n"
            "end: certificate\n"
        )
        p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
        doc = parse_certificate(text, p.alphabet)
        ok, why = verify_equality_document(doc, p, parse_word("aa", p.alphabet))
        assert not ok
        assert "relators-used" in why
        assert p.source.pulled_count <= 1

    def test_relator_claim_above_the_cap_pulls_nothing(self):
        # A claim the factors bear out, but above the cap: rejected before
        # any relator past the inline prefix is pulled.
        text = (
            "certificate: equality\n"
            f"presentation: {'0' * 64}\n"
            "target: aa\n"
            "relators-used: 2000001\n"
            "factors: 1\n"
            "factor: 2000000 +\n"
            "end: certificate\n"
        )
        p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
        doc = parse_certificate(text, p.alphabet)
        ok, why = verify_equality_document(doc, p, parse_word("aa", p.alphabet))
        assert (ok, why) == (False, "relators-used 2000001 is above the cap of 100000")
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
        assert doc.relators_used == 3
        monkeypatch.setattr(certcheck, "MAX_RELATORS", 3)
        assert verify_finiteness_document(doc, extended) == (True, "ok")
        monkeypatch.setattr(certcheck, "MAX_RELATORS", 2)
        ok, why = verify_finiteness_document(doc, extended)
        assert (ok, why) == (False, "relators-used 3 is above the cap of 2")

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
        doc = parse_certificate(forged, extended.alphabet)
        ok, why = verify_finiteness_document(doc, extend(z(), doc.target))
        assert not ok
        assert "more relators than the enclosing" in why

    def test_requires_extended_presentation(self, finiteness_cert):
        ok, why = verify_finiteness(finiteness_cert, z())
        assert not ok

    def test_letters_mode_rejects_coverage_certificates(self):
        # Letters mode has no coverage goals, so a cover-cert block is never
        # checked; it must be refused, or it would set relators-used unseen.
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
        assert doc.relators_used == 4
        ok, why = verify_finiteness_document(doc, extended)
        assert not ok and "unexpected" in why


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
        (lambda c: c._replace(mode="foo"), "unknown tau mode 'foo'"),
    ], ids=["image-dropped", "image-aA", "no-coverage", "mode-foo"])
    def test_forged_finiteness_certificate(self, finiteness_cert, forge, why):
        assert finiteness_cert.mode == WORDS_MODE
        extended = extend(z(), parse_word("aaa", z().alphabet))
        assert verify_finiteness(forge(finiteness_cert), extended) == (False, why)

    def test_table_axioms_reject_empty_and_ragged_tables(self):
        assert is_group_table(()) == (False, "empty table")
        assert is_group_table(((0, 1), (1,))) == (False, "row 1 has length 1, expected 2")


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


# name -> (presentation, word, tau mode, the word's verdict)
FUZZ_CASES = {
    "abba": (DINF, "abba", WORDS_MODE, EQUAL),
    "abab": (DINF, "abab", WORDS_MODE, NOT_EQUAL),  # by the Klein group
    "d4-a": (D4, "a", LETTERS_MODE, NOT_EQUAL),  # by Z/2, letters mode
    "m2-a": (M2, "a", LETTERS_MODE, NOT_EQUAL),  # by Z/2 x Z/2: the class of b and c has two generators
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
        except ValueError:  # CertificateSyntaxError included
            return
        assert not ok or certified == verdict, why
