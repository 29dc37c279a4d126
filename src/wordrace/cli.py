"""Command-line front door: solve, verify, enum-tables, corpus.

Exit codes for ``solve`` encode the verdict so shell pipelines can branch:
0 = equal, 1 = not-equal, 2 = exhausted, >2 = error.  The outcome document
on stdout is byte-identical across runs with identical inputs; wall time
goes to stderr so it cannot break that.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .certificates import LETTERS_MODE, WORDS_MODE
from .words import format_word, parse_word

EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default, which would collide with
    # the exhausted verdict; errors must exit above 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="wordrace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="decide whether a word equals 1")
    ps.add_argument("presentation", help="presentation file path")
    ps.add_argument("--word", required=True, help="word in compact format; empty string is the identity")
    group = ps.add_mutually_exclusive_group()
    group.add_argument("--budget", type=int, default=1_000_000, help="total steps across both arms")
    group.add_argument(
        "--unlimited", action="store_true",
        help="run until resolved; may never terminate if the group is not just infinite",
    )
    ps.add_argument("--quantum", type=int, default=1, help="steps per arm turn")
    ps.add_argument("--max-table-order", type=int,
                    help="largest order of the table a finiteness certificate emits, in either tau mode")
    ps.add_argument("--strict-tau", action="store_true",
                    help="literal letter-valued surjections instead of word-valued assignments")
    ps.add_argument("--json", action="store_true", dest="as_json")
    ps.add_argument("--output", help="write the outcome document here instead of stdout")

    pv = sub.add_parser("verify", help="check a certificate against a presentation")
    pv.add_argument("certificate", help="certificate file path")
    pv.add_argument("presentation", help="presentation file path")
    pv.add_argument("--word", help="cross-check the certified word")

    pe = sub.add_parser("enum-tables", help="print group tables of one order")
    pe.add_argument("--order", type=int, required=True)

    sub.add_parser("corpus", help="run the built-in groups against their oracles")
    return parser


def _read(path: str) -> str:
    # Line ends as written: a certificate has one spelling, and a presentation is split on any line end.
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()


def _cmd_solve(args) -> int:
    # Each command imports what it runs: verify loads no prover module, and enum-tables no presentation.
    from .presentation import extend, parse_presentation
    from .quotient import DEFAULT_MAX_TABLE_ORDER
    from .scheduler import EQUAL, EXHAUSTED, NOT_EQUAL, Budget, solve

    p = parse_presentation(_read(args.presentation))
    try:
        word = parse_word(args.word, p.alphabet)
        budget = Budget(None if args.unlimited else args.budget, args.quantum)
        mode = LETTERS_MODE if args.strict_tau else WORDS_MODE
        start = time.perf_counter()
        cap = DEFAULT_MAX_TABLE_ORDER if args.max_table_order is None else args.max_table_order
        outcome = solve(p, word, budget, tau_mode=mode, max_table_order=cap)
        wall_ms = (time.perf_counter() - start) * 1000.0
        print(f"wall-time-ms: {wall_ms:.1f}", file=sys.stderr)

        certificate_text = None
        if outcome.verdict != EXHAUSTED:
            from . import certcheck  # only a verdict has a certificate to write

            if outcome.verdict == EQUAL:
                certificate_text = certcheck.serialize_equality(outcome.certificate, p)
            else:
                certificate_text = certcheck.serialize_finiteness(outcome.certificate, extend(p, word))

        record = {  # the outcome document's fields, in text order
            "verdict": outcome.verdict,
            "word": args.word,
            "reduced": format_word(word, p.alphabet),
            "budget": budget.max_total_steps,
            "quantum": args.quantum,
            "steps_equal_arm": outcome.steps_equal_arm,
            "steps_finite_arm": outcome.steps_finite_arm,
        }
        if args.as_json:
            doc = json.dumps({**record, "certificate": certificate_text}, sort_keys=True, indent=2) + "\n"
        else:
            doc = "".join(
                f"{key.replace('_', '-')}: {'unlimited' if value is None else value}\n" for key, value in record.items()
            )
            if certificate_text is not None:
                doc += "\n" + certificate_text

        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(doc)
        else:
            sys.stdout.write(doc)
        return {EQUAL: 0, NOT_EQUAL: 1, EXHAUSTED: 2}[outcome.verdict]
    finally:
        p.close()


def _cmd_verify(args) -> int:
    from . import certcheck
    from .presentation import extend, parse_presentation

    p = parse_presentation(_read(args.presentation))
    try:
        doc = certcheck.parse_certificate(_read(args.certificate), p.alphabet)
        equality = isinstance(doc, certcheck.EqualityDocument)
        target = doc.certificate.target if equality else doc.target
        if args.word is not None and parse_word(args.word, p.alphabet) != target:
            print("invalid: certificate is for a different word")
            return 1
        if equality:
            ok, why = certcheck.verify_equality_document(doc, p, target)
        else:
            ok, why = certcheck.verify_finiteness_document(doc, extend(p, target))
        if ok:
            print(f"valid: {'equality' if equality else 'finiteness'} certificate")
            return 0
        print(f"invalid: {why}")
        return 1
    finally:
        p.close()


def _cmd_enum_tables(args) -> int:
    if args.order < 1:
        raise ValueError("--order must be >= 1")
    from .tables import enumerate_tables

    blocks = []
    for table in enumerate_tables(args.order):
        blocks.append("\n".join(" ".join(str(v) for v in row) for row in table.cells))
    sys.stdout.write("\n\n".join(blocks) + "\n")
    return 0


_CORPUS_WORDS = {
    "Z": ["", "a", "aa", "aaa", "A", "AA", "AAA"],
    "Dinf": ["", "a", "b", "aa", "bb", "ab", "aB", "Ab", "ba", "abba", "aabb"],
    "Z3": ["", "a", "aa", "aaa", "AAA"],
    "Z4": ["aa", "aaaa", "A"],
}


def _cmd_corpus(args) -> int:
    from . import oracle
    from .presentation import parse_presentation
    from .scheduler import EQUAL, NOT_EQUAL, Budget, solve

    all_ok = True
    print(f"{'group':6} {'word':8} {'verdict':10} {'oracle':8} ok")
    for group in oracle.corpus_groups():
        p = parse_presentation(group.presentation_text)
        try:
            for text in _CORPUS_WORDS[group.name]:
                word = parse_word(text, p.alphabet)
                outcome = solve(p, word, Budget(400_000))
                expected = group.is_identity(word)
                got = {EQUAL: True, NOT_EQUAL: False}.get(outcome.verdict)
                ok = got == expected
                all_ok = all_ok and ok
                shown = text if text else "(empty)"
                oracle_text = "equal" if expected else "not-equal"
                print(f"{group.name:6} {shown:8} {outcome.verdict:10} {oracle_text:8} {'yes' if ok else 'NO'}")
        finally:
            p.close()
    print("corpus:", "all verdicts agree" if all_ok else "DISAGREEMENT")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "enum-tables": _cmd_enum_tables,
        "corpus": _cmd_corpus,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:
        from .presentation import StreamError  # here, so that enum-tables loads no presentation

        if not isinstance(exc, (ValueError, OSError, StreamError)):
            raise
        print(f"wordrace: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
