"""Test-side conveniences and reference enumerations built on the library.

None of these runs on the solver's path: they drive a task to a budget,
re-assemble a product the slow way, index the Dyck enumeration by cursor,
or print a presentation or certificate back, so that tests can state what
the solver must match.
"""

from wordrace.certcheck import serialize_equality, serialize_finiteness
from wordrace.derivation import EqualityCertificate, EqualityTask, ProductStream
from wordrace.quotient import WORDS_MODE, FinitenessCertificate, FinitenessTask
from wordrace.tables import DEFAULT_MAX_TABLE_ORDER
from wordrace.words import (
    MalformedWordError,
    concat_all,
    conjugate,
    format_word,
    invert,
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
    """Inverse of parse for inline presentations: finite sources whose lattice list is every relator."""
    relators = p.source.lattice_relators()
    if relators is None or p.source.available(len(relators) + 1) > len(relators):
        raise ValueError("only inline presentations serialize")
    lines = ["generators: " + " ".join(p.alphabet.generators)]
    lines += ["relator: " + format_word(w, p.alphabet) for w in relators]
    return "\n".join(lines) + "\n"


def serialize_certificate(cert, p):
    """The certificate document of either kind; p is extended for a finiteness one."""
    if isinstance(cert, EqualityCertificate):
        return serialize_equality(cert, p)
    if isinstance(cert, FinitenessCertificate):
        return serialize_finiteness(cert, p)
    raise TypeError(f"not a certificate: {cert!r}")
