"""Proofs of a coset enumeration, and the certificate of its closed table.

A proof is a node of a DAG: None (the empty product), a leaf (rep, i)
standing for rep R_i rep^-1 with rep a representative chain (see
``cosets``), a concatenation, or an inverse.  The enumeration builds nodes
with ``leaf``, ``cat`` and ``inv`` and never expands them; only a
certificate spells them out as Dyck factors: ``certificate_fields`` for a
closed table, ``derivation.EqualityTask`` for the trace of X.

A closed table of a finite group H that maps onto G1 yields a finiteness
certificate: the images are the shortlex transversal, found breadth first;
each generator is covered by the element its edge out of coset 0 reaches;
the cell (i, j) is proved by tracing images[j] from coset i and
concatenating the edge proofs.  The cells' goal words are those of
``equation_words``, which the letters-mode translation also uses.  The edge
proofs are first rebuilt over the shortlex transversal and shortened by
Knuth's generalization of Dijkstra's algorithm ("A generalization of
Dijkstra's algorithm", 1977): tree edges cost nothing, and a relator cycle
whose other edges are all settled settles its last one at one factor plus
their sizes.  An edge no cycle settles keeps its enumeration proof, which
can be exponentially long: when the shortest such proof has over
MAX_RAW_FACTORS factors nothing is emitted.
"""

from __future__ import annotations

import heapq
import itertools

from .certificates import DyckFactor, EqualityCertificate, MultiplicationTable
from .words import Word, concat, invert, reduce_word

MAX_RAW_FACTORS = 10**6  # the largest enumeration proof a certificate may expand, before cancellation

_LEAF, _CAT, _INV = 0, 1, 2


def leaf(rep, index):
    return (_LEAF, rep, index)


def inv(p):
    if p is None:
        return None
    return p[1] if p[0] == _INV else (_INV, p)


def cat(*parts):
    parts = [p for p in parts if p is not None]
    if len(parts) < 2:
        return parts[0] if parts else None
    return (_CAT, *parts)


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


def _rep_word(rep) -> Word:
    letters = []
    while rep:
        rep, x = rep
        letters.append(x)
    return reduce_word(bytes(reversed(letters)))


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
            todo = [c for c in n[1:] if id(c) not in memo]
            if todo:
                stack.extend(todo)
                continue
            values = [memo[id(c)][1] for c in n[1:]]
            memo[id(n)] = (n, on_inverse(values[0]) if n[0] == _INV else on_cat(values))
        stack.pop()
    return memo[id(node)][1]


def _size(node, memo) -> int:
    """The factor count of a proof before cancellation."""
    return _fold(node, memo, lambda n: 1, int, sum)


def _expand(node, memo) -> tuple:
    """The factors of a proof, cancelled."""
    return _fold(node, memo, lambda n: (DyckFactor(_rep_word(n[1]), n[2], 1),), _invert_factors,
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


def certificate_fields(table, entry_proof, rels, k2) -> dict | None:
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
        if unsettled[v] > MAX_RAW_FACTORS:
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
