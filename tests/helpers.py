"""Test-side conveniences and reference enumerations built on the library.

None of these runs on the solver's path: they drive a task or the race to
a budget, search for a letters-mode quotient by brute force, run Light's
test over a generating set closed pairwise, re-assemble a product the slow
way, index the Dyck enumeration by cursor, find where a coset enumeration's
idle window ends by scanning every slot, build a finiteness certificate by
tracing every cell, print a presentation or certificate back, double a
finiteness certificate into one whose table is no group, write a stream
source, or run code in a fresh interpreter, so that tests can state what
the solver must match.
"""

import heapq
import itertools
import os
import subprocess
import sys
import textwrap

from wordrace import proofs
from wordrace.certcheck import serialize_equality, serialize_finiteness
from wordrace.certificates import DyckFactor, MultiplicationTable
from wordrace.derivation import EqualityCertificate, EqualityTask, ProductStream
from wordrace.presentation import extend, parse_presentation
from wordrace.proofs import _INV, _LEAF, _rep_word, cat
from wordrace.quotient import DEFAULT_MAX_TABLE_ORDER, WORDS_MODE, FinitenessCertificate, FinitenessTask
from wordrace.scheduler import EQUAL, EXHAUSTED, NOT_EQUAL, Outcome
from wordrace.tables import enumerate_tables
from wordrace.words import (
    MalformedWordError,
    Word,
    concat,
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

    The cubic reference for Light's test in ``is_group_table``.
    """
    r = len(cells)
    for i in range(r):
        for j in range(r):
            ij = cells[i][j]
            for k in range(r):
                if cells[ij][k] != cells[i][cells[j][k]]:
                    return i, j, k
    return None


def generating_set(cells) -> tuple[int, ...]:
    """The greedy generating set of a Latin square with identity 0.

    Each pick is the least element outside the closure of 0 and the earlier
    picks under the product.  That closure is a subsquare, and a proper
    subsquare has at most half the order, so there are at most log2 r picks.
    """
    picks, closure, inside = [], [0], {0}
    for g in range(1, len(cells)):
        if g not in inside:
            picks.append(g)
            closure.append(g)
            inside.add(g)
            for n, x in enumerate(closure):  # also visits what is appended meanwhile
                for y in closure[: n + 1]:
                    for z in (cells[x][y], cells[y][x]):
                        if z not in inside:
                            inside.add(z)
                            closure.append(z)
    return tuple(picks)


def light_reference(cells):
    """Light's test over the whole greedy generating set, for a Latin square with identity 0.

    The check ``is_group_table`` made before it found its picks by a walk:
    (True, None), or False and the first triple where (i.j).k != i.(j.k)
    for j in ``generating_set(cells)``, in pick order.
    """
    r = len(cells)
    for j in generating_set(cells):
        for i in range(r):
            ij = cells[i][j]
            for k in range(r):
                if cells[ij][k] != cells[i][cells[j][k]]:
                    return False, f"associativity fails at ({i},{j},{k})"
    return True, None


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


def doubled(cert):
    """The finiteness certificate with each element u split in two, 2u and 2u + 1, whose table is no group's.

    (u, s).(v, t) = (u.v, 1 - s), so row 0 is not the identity row, but the
    table is closed and both halves of u image u's word: cell (2i+s, 2j+t)
    has the goal of cell (i, j), and takes its proof.
    """
    cells, r = cert.table.cells, cert.table.order
    return cert._replace(
        table=MultiplicationTable(tuple(
            tuple(2 * cells[u][v] + 1 - s for v in range(r) for _ in (0, 1)) for u in range(r) for s in (0, 1))),
        images=tuple(w for w in cert.images for _ in (0, 1)),
        coverage=cert.coverage and {g: 2 * e for g, e in cert.coverage.items()},
        equation_certs={(2 * i + s, 2 * j + t): proof
                        for (i, j), proof in cert.equation_certs.items() for s in (0, 1) for t in (0, 1)},
    )


def stream_presentation(tmp_path, body, *args):
    """A presentation over a and b whose stream runs ``body`` as a Python script."""
    script = tmp_path / "emit.py"
    script.write_text(textwrap.dedent(body))
    command = " ".join(map(str, (sys.executable, script, *args)))
    return parse_presentation(f"generators: a b\nstream: {command}\n")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code):
    """Run ``code`` in a fresh interpreter with this checkout's src first on the path; its stdout lines."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


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


# -- the reference finiteness-certificate builder -------------------------
#
# ``certificate_fields_reference`` is the builder that ``proofs`` replaced
# with its one-pass form, with the goal words and proof folds it used, kept
# verbatim but for reading ``proofs.MAX_RAW_FACTORS`` at call time and the
# node fields past the size each node states.  It traces images[j] from
# every coset i for each cell, builds every coset's enumeration proof up
# front and sizes every unsettled edge again on every fallback pass.
# ``proofs.finiteness_certificate`` spells a goal only where its walk
# leaves the tree, and returns the words-mode record: it must equal the
# record of these fields, cell order included.


def _invert_factors(factors):
    return tuple(DyckFactor(f.conjugator, f.relator_index, -f.sign) for f in reversed(factors))


def _cancel(factors):
    """Free reduction over factors: a factor next to its own inverse cancels."""
    out = []
    for f in factors:
        if out and out[-1].sign == -f.sign and out[-1][:2] == f[:2]:
            out.pop()
        else:
            out.append(f)
    return tuple(out)


def _fold(node, memo, on_leaf, on_inverse, on_cat):
    """Evaluate a proof node bottom-up without recursion: on_leaf(n), on_inverse(value), on_cat(values).

    memo maps id(node) to (node, value), so each shared node is evaluated
    once, and a node made for the call stays alive, its id unused by
    another, as long as the memo; the empty proof None is on_cat([]).
    """
    if node is None:
        return on_cat([])
    stack = [node]
    while stack:
        n = stack[-1]
        if id(n) in memo:
            stack.pop()
            continue
        if n[0] == _LEAF:
            memo[id(n)] = (n, on_leaf(n))
        else:
            todo = [c for c in n[2:] if id(c) not in memo]
            if todo:
                stack.extend(todo)
                continue
            values = [memo[id(c)][1] for c in n[2:]]
            memo[id(n)] = (n, on_inverse(values[0]) if n[0] == _INV else on_cat(values))
        stack.pop()
    return memo[id(node)][1]


def _size(node, memo) -> int:
    """The factor count of a proof before cancellation."""
    return _fold(node, memo, lambda n: 1, int, sum)


def _expand(node, memo) -> tuple:
    """The factors of a proof, cancelled."""
    return _fold(node, memo, lambda n: (DyckFactor(_rep_word(n[2]), n[3], 1),), _invert_factors,
                 lambda parts: _cancel(itertools.chain.from_iterable(parts)))


def equation_words(table: MultiplicationTable, images: tuple[Word, ...]):
    """The r*r reduced goal words tau(u_i) tau(u_j) tau(u_k)^-1, row-major.

    Empty results are trivially proved (the empty Dyck product derives them).
    """
    inverses = [invert(w) for w in images]
    return [
        (i, j, concat(concat(images[i], images[j]), inverses[k]))
        for i, row in enumerate(table.cells)
        for j, k in enumerate(row)
    ]


def certificate_fields_reference(table, entry_proof, rels, k2) -> dict | None:
    """The fields of the finiteness certificate of a closed coset table, or None.

    ``table[c][x]`` is the coset c.x, for the k2 letters x, and
    ``entry_proof(c, x)`` the proof of that entry, coset 0 and the cosets
    reached from it being live;
    ``rels`` lists the (relator index, word) pairs scanned at every coset.
    None when an edge needs an enumeration proof of more than
    MAX_RAW_FACTORS factors.
    """
    # The shortlex transversal, breadth first from coset 0; base[i]
    # proves images[i] rep(i)^-1 from the enumeration's proofs.
    number, order, images, base, tree = {0: 0}, [0], [b""], [None], []
    for i, c in enumerate(order):
        for x, d in enumerate(table[c][:k2]):
            if d not in number:
                number[d] = len(order)
                order.append(d)
                images.append(images[i] + bytes((x,)))
                base.append(cat(base[i], entry_proof(c, x)))
                tree.append(i * k2 + x)
    r = len(order)
    nt = [[number[d] for d in table[c][:k2]] for c in order]  # nt[i][x] is the coset i.x
    # Edge e = i*k2 + x needs a proof of images[i] x images[i.x]^-1; it and
    # its mirror (i.x)*k2 + (x^1) share one, kept for the smaller of the two.
    var = [min(e, nt[e // k2][e % k2] * k2 + (e % k2 ^ 1)) for e in range(r * k2)]
    cycles, occurs = [], {}  # the relator cycles, and the cycles through each variable
    for i in range(r):
        for index, word in rels:
            entries, c = [], i
            for y in word:
                entries.append(c * k2 + y)
                c = nt[c][y]
            for e in entries:
                occurs.setdefault(var[e], []).append(len(cycles))
            cycles.append((i, index, entries))
    pending = [len(entries) for _, _, entries in cycles]  # unsettled places on each cycle
    fac, heap = {}, []

    def edge(e):
        v = var[e]
        return fac[v] if e == v else _invert_factors(fac[v])

    def offer(n):  # a cycle with one unsettled place: it costs one leaf plus the others
        entries = cycles[n][2]
        t = next(t for t, e in enumerate(entries) if var[e] not in fac)
        size = 1 + sum(len(fac[var[e]]) for e in entries if var[e] in fac)
        heapq.heappush(heap, (size, var[entries[t]], n, t))

    def settle(v, factors):
        fac[v] = factors
        touched = occurs.get(v, ())
        for n in touched:
            pending[n] -= 1
        for n in dict.fromkeys(touched):
            if pending[n] == 1:
                offer(n)

    # Knuth's generalization of Dijkstra: tree edges are free, and the
    # cheapest cycle with one unsettled place settles it, as inv(the
    # edges before it) . leaf . inv(the edges after it).  When no cycle
    # settles an edge, the one with the smallest enumeration proof takes
    # that proof.
    for e in tree:
        settle(var[e], ())
    for n, left in enumerate(pending):
        if left == 1:
            offer(n)
    sizes, expanded = {}, {}

    def raw(v):  # the enumeration's proof of edge v, in three parts
        i, x = divmod(v, k2)
        return base[i], entry_proof(order[i], x), base[nt[i][x]]

    while True:
        while heap:
            _, v, n, t = heapq.heappop(heap)
            if v not in fac:
                i, index, entries = cycles[n]
                parts = [_invert_factors(edge(e)) for e in reversed(entries[:t])]
                parts.append((DyckFactor(images[i], index, 1),))
                parts += [_invert_factors(edge(e)) for e in reversed(entries[t + 1 :])]
                proof = _cancel(itertools.chain.from_iterable(parts))  # proves entries[t]
                settle(v, proof if entries[t] == v else _invert_factors(proof))
        unsettled = {v: sum(_size(p, sizes) for p in raw(v)) for v in range(r * k2) if var[v] == v and v not in fac}
        if not unsettled:
            break
        v = min(unsettled, key=unsettled.get)
        if unsettled[v] > proofs.MAX_RAW_FACTORS:
            return None  # too large to write out
        head, middle, tail = (_expand(p, expanded) for p in raw(v))
        settle(v, _cancel(itertools.chain(head, middle, _invert_factors(tail))))

    def trace(i, word):  # the coset word leads to from i, and the edges it passes
        edges = []
        for x in word:
            edges.append(i * k2 + x)
            i = nt[i][x]
        return i, edges

    table = MultiplicationTable(tuple(tuple(trace(i, w)[0] for w in images) for i in range(r)))
    equation_certs = {
        (i, j): EqualityCertificate(_cancel(itertools.chain.from_iterable(map(edge, trace(i, images[j])[1]))), goal)
        for i, j, goal in equation_words(table, images)
        if goal
    }
    coverage, coverage_certs = {}, {}
    for g in range(k2 // 2):
        e = coverage[g] = nt[0][2 * g]
        goal = concat(bytes((2 * g,)), invert(images[e]))
        if goal:
            coverage_certs[g] = EqualityCertificate(edge(2 * g), goal)
    return {
        "table": table,
        "images": tuple(images),
        "coverage": coverage,
        "equation_certs": equation_certs,
        "coverage_certs": coverage_certs,
    }
