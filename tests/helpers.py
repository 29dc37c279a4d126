"""Test-side conveniences and reference enumerations built on the library.

None of these runs on the solver's path: they drive a task or the race to
a budget, search for a letters-mode quotient by brute force, re-assemble a
product the slow way, index the Dyck enumeration by cursor, find where a
coset enumeration's idle window ends by scanning every slot, print a
presentation or certificate back, or write a stream source, so that tests
can state what the solver must match.
"""

import itertools
import sys
import textwrap

from wordrace.certcheck import serialize_equality, serialize_finiteness
from wordrace.derivation import EqualityCertificate, EqualityTask, ProductStream
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import DEFAULT_MAX_TABLE_ORDER, WORDS_MODE, FinitenessCertificate, FinitenessTask
from wordrace.scheduler import EQUAL, EXHAUSTED, NOT_EQUAL, Outcome
from wordrace.tables import enumerate_tables
from wordrace.words import (
    MalformedWordError,
    concat_all,
    conjugate,
    format_word,
    invert,
    reduce_word,
)


def letter(index, sign):
    """Letter byte for generator ``index`` with ``sign`` +1 or -1."""
    if sign not in (1, -1):
        raise MalformedWordError(f"sign must be +1 or -1, got {sign}")
    return 2 * index + (0 if sign == 1 else 1)


def associativity_failure(cells):
    """The first triple (i, j, k), row-major, with (i.j).k != i.(j.k); None if none.

    The cubic reference for the generating-set check in ``is_group_table``.
    """
    r = len(cells)
    for i in range(r):
        for j in range(r):
            ij = cells[i][j]
            for k in range(r):
                if cells[ij][k] != cells[i][cells[j][k]]:
                    return i, j, k
    return None


def prove_equal(p, x, budget):
    """Run an EqualityTask for up to ``budget`` steps; None means exhausted."""
    task = EqualityTask(p, x)
    for _ in range(budget):
        cert = task.step()
        if cert is not None:
            return cert
    return None


def prove_finite(extended, budget, mode=WORDS_MODE, max_table_order=DEFAULT_MAX_TABLE_ORDER):
    """Run a FinitenessTask for up to ``budget`` steps; None means exhausted."""
    task = FinitenessTask(extended, mode=mode, max_table_order=max_table_order)
    for _ in range(budget):
        cert = task.step()
        if cert is not None:
            return cert
    return None


def letter_quotient_exists(words_cert, k, cap):
    """Whether a letters-mode certificate of order <= cap exists, by brute force.

    ``words_cert`` is the words-mode certificate of G1, whose table H is G1
    itself and whose ``coverage`` gives each of the k generators' class in
    H; None stands for G1 infinite or of order above the cap.  Every table
    of order <= cap, one per isomorphism class, and every letter map onto
    the generators is tried: the map is a certificate iff the classes of
    its images multiply as the table does, that is iff every goal word is
    trivial in G1.
    """
    if words_cert is None:
        return False
    h, coverage = words_cert.table.cells, words_cert.coverage
    for r in range(1, cap + 1):
        for table in enumerate_tables(r):
            for gens in itertools.product(range(k), repeat=r):
                if len(set(gens)) < k:
                    continue
                classes = [coverage[g] for g in gens]
                if all(
                    h[classes[i]][classes[j]] == classes[c]
                    for i, row in enumerate(table.cells)
                    for j, c in enumerate(row)
                ):
                    return True
    return False


def race_reference(p, x, budget, tau_mode=WORDS_MODE):
    """The race as a plain loop of strict alternation, every turn taken: the ``Outcome`` solve must return."""
    target = reduce_word(x)
    if target == b"":
        return Outcome(EQUAL, EqualityCertificate(factors=(), target=b""), 0, 0)
    arms = (EqualityTask(p, target), FinitenessTask(extend(p, target), mode=tau_mode))
    turn = 0
    while budget.max_total_steps is None or turn < budget.max_total_steps:
        arm = arms[turn // budget.quantum % 2]
        cert = arm.step()
        if cert is not None:
            verdict = EQUAL if arm is arms[0] else NOT_EQUAL
            return Outcome(verdict, cert, arms[0].steps_taken, arms[1].steps_taken)
        turn += 1
    return Outcome(EXHAUSTED, None, arms[0].steps_taken, arms[1].steps_taken)


def closed_run_reference(e, d, n):
    """What ``CosetEnumeration._closed_run(d, n)`` must return, found by scanning ``scanned``.

    (k, the k-th pair) for the k closed pairs after the closed pair (d, n)
    of a full table, up to the next open pair, the step before the next
    check, or the wrap back to slot 0; every slot is live, so pair (c, m)
    is number c * rels + m.
    """
    scanned, rels = e._scanned, len(e._rels)
    if n + 1 < rels and scanned[d] < rels:  # an open pair at d
        end = d * rels + scanned[d]
    elif d + 1 == len(scanned) or not scanned[d + 1]:  # the wrap, or an open pair (d + 1, 0)
        end = (d + 1) * rels
    else:
        tail = scanned[d + 1 :]
        c = d + 1 + min((tail.index(m) for m in range(rels) if m in tail), default=len(tail))
        end = c * rels + (scanned[c] if c < len(scanned) else 0)
    here = d * rels + n
    k = max(0, min(e._next_check - e.steps_taken - 1, end - here - 1))
    return k, divmod(here + k, rels)


def open_cosets(e):
    """The live cosets of enumeration e with relators left to scan, recounted."""
    return [c for c in range(len(e._parent)) if e._parent[c] == c and e._scanned[c] < len(e._rels)]


def assemble(factors, p):
    """Free reduction of the product of conjugated relators; may pull relators."""
    parts = []
    for f in factors:
        rel = p.relator(f.relator_index)
        body = rel if f.sign == 1 else invert(rel)
        parts.append(conjugate(f.conjugator, body))
    return concat_all(parts)


def dyck_at_cursor(c, p):
    """The factors of the c-th product of the enumeration (sequential scan, O(c))."""
    if c < 0:
        raise ValueError("cursor must be a natural number")
    stream = ProductStream(p)
    seen = -1
    while True:
        ev = stream.next_event()
        if ev[0] == "product":
            seen += 1
            if seen == c:
                return ev[1]


def serialize_presentation(p):
    """Inverse of parse for inline presentations: sources with no relator past the inline prefix."""
    n = p.source.inline_count
    if p.source.available(n + 1) > n:
        raise ValueError("only inline presentations serialize")
    lines = ["generators: " + " ".join(p.alphabet.generators)]
    lines += ["relator: " + format_word(p.source.relator(i), p.alphabet) for i in range(n)]
    return "\n".join(lines) + "\n"


def serialize_certificate(cert, p):
    """The certificate document of either kind; p is extended for a finiteness one."""
    if isinstance(cert, EqualityCertificate):
        return serialize_equality(cert, p)
    if isinstance(cert, FinitenessCertificate):
        return serialize_finiteness(cert, p)
    raise TypeError(f"not a certificate: {cert!r}")


def stream_presentation(tmp_path, body, *args):
    """A presentation over a and b whose stream runs ``body`` as a Python script."""
    script = tmp_path / "emit.py"
    script.write_text(textwrap.dedent(body))
    command = " ".join(map(str, (sys.executable, script, *args)))
    return parse_presentation(f"generators: a b\nstream: {command}\n")


# Writes its pid to argv[1], then prints aa and bb forever, or once if argv[2] is "once".
PID_SCRIPT = """
    import os, sys
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    while True:
        print("aa", flush=True)
        print("bb", flush=True)
        if sys.argv[2] == "once":
            break
"""
