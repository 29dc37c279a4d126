"""Proofs of a coset enumeration, and the certificate of its closed table.

A proof is a node of a DAG: None (the empty product), a leaf (rep, i)
standing for rep R_i rep^-1 with rep a representative chain (see
``cosets``), a concatenation, or an inverse.  The enumeration builds nodes
with ``leaf``, ``cat`` and ``inv``, each stating its factor count before
cancellation, and never expands them; only a certificate spells them out
as Dyck factors, through ``write_out``, which refuses a proof of more than
MAX_RAW_FACTORS factors before expanding it: ``finiteness_certificate`` for
a closed table, ``derivation.EqualityTask`` for the trace of X.

A closed table of a finite group H that maps onto G1 yields a finiteness
certificate: the images are the shortlex transversal, found breadth first,
and each generator is covered by the element its edge out of coset 0
reaches.  ``finiteness_certificate`` builds it in one pass, for a table of r
cosets over k2 letters whose relators have L letters in all:

- Edge proofs.  Edge i.x = j needs a proof of images[i] x images[j]^-1,
  shared with its mirror j.x^-1 = i.  Tree edges cost nothing; the rest
  are shortened by Knuth's generalization of Dijkstra's algorithm ("A
  generalization of Dijkstra's algorithm", 1977): a relator cycle whose
  other edges are all settled settles its last one at one factor plus
  their sizes.  Each cycle is traced once, r L steps, kept as its places
  off the tree and offered at most once.  Only an edge that no cycle
  settles reads the enumeration's proofs (Havas and Ramsay, "Proving a
  group trivial made easy", 2000), on a DAG made only for the cosets
  those edges join: the cheapest, by the sizes its nodes state, is
  written out, which can be exponentially long.  When it has over
  MAX_RAW_FACTORS factors nothing is emitted.
- Cells.  Cell (i, j) is cell (i, p) and one edge more, p being the parent
  of j, so the table takes r^2 steps.  Its proof is that of (i, p) with
  the edge's appended, cancelled at the junction only.  Only a cell whose
  goal is nonempty crosses an edge off the tree, so only those cells make
  a product; every other cell shares its parent's proof.
- Goals.  A cell's goal word, that of ``equation_words``, is nonempty
  exactly when its proof is, and only then spelled, in two ``concat``; a
  generator's, only where its edge out of coset 0 has a nonempty proof.
"""

from __future__ import annotations

import heapq

from .certificates import WORDS_MODE, DyckFactor, EqualityCertificate, FinitenessCertificate, MultiplicationTable
from .words import Word, concat, invert

MAX_RAW_FACTORS = 10**6  # the largest enumeration proof a certificate may expand, before cancellation

_LEAF, _CAT, _INV = 0, 1, 2  # a node is (kind, its factor count before cancellation, *its fields)


def leaf(rep, index):
    return (_LEAF, 1, rep, index)


def inv(p):
    if p is None:
        return None
    return p[2] if p[0] == _INV else (_INV, p[1], p)


def cat(*parts):
    parts = [p for p in parts if p is not None]
    if len(parts) < 2:
        return parts[0] if parts else None
    return (_CAT, sum(p[1] for p in parts), *parts)


def _invert_factors(factors):
    return tuple(DyckFactor(t, n, -sign) for t, n, sign in reversed(factors))


def _rep_word(rep) -> Word:
    """The word of a representative chain, reduced as built: c.x is defined only while it is undefined, and a live
    coset c = p.y has c.y^-1 defined (a coincidence restores it before it returns), so x is never y^-1."""
    letters = []
    while rep:
        rep, x = rep
        letters.append(x)
    return bytes(reversed(letters))


def _product(parts) -> tuple:
    """The free reduction of the concatenated parts, each freely reduced: a factor next to its own inverse cancels.

    Only the junctions of the parts can cancel.
    """
    out = ()
    for part in parts:
        t, n = 0, min(len(out), len(part))
        while t < n and out[-1 - t].sign == -part[t].sign and out[-1 - t][:2] == part[t][:2]:
            t += 1
        out = out[: len(out) - t] + part[t:]
    return out


def _expand(node, memo) -> tuple:
    """The factors of a proof node, freely reduced, evaluated bottom-up without recursion.

    memo maps id(node) to (node, factors), so each shared node is expanded once and a node made for
    the call keeps its id while the memo lives; a node whose children are still to come maps to None.
    """
    stack = [node]
    while stack:
        n = stack.pop()
        key = id(n)
        if key not in memo:
            if n[0] == _LEAF:
                memo[key] = (n, (DyckFactor(_rep_word(n[2]), n[3], 1),))
            else:  # its children first, then itself again
                memo[key] = None
                stack.append(n)
                stack += n[2:]
        elif memo[key] is None:
            if n[0] == _INV:
                memo[key] = (n, _invert_factors(memo[id(n[2])][1]))
            else:
                memo[key] = (n, _product([memo[id(c)][1] for c in n[2:]]))
    return memo[id(node)][1]


def write_out(proof, memo) -> tuple | None:
    """The factors of a proof, freely reduced, or None if it has over MAX_RAW_FACTORS before cancellation.

    The size is read off the node, so a proof too large is never expanded.  memo is ``_expand``'s.
    """
    if proof is None:
        return ()
    return None if proof[1] > MAX_RAW_FACTORS else _expand(proof, memo)


def equation_words(table: MultiplicationTable, images: tuple[Word, ...]):
    """The r*r reduced goal words tau(u_i) tau(u_j) tau(u_k)^-1, row-major.

    Empty results are trivially proved (the empty Dyck product derives them).
    A goal is empty exactly when tau(u_i) tau(u_j) reduces to tau(u_k), so an
    empty goal takes one ``concat``.
    """
    inverses = [invert(w) for w in images]
    return [
        (i, j, b"" if (w := concat(u, images[j])) == images[k] else concat(w, inverses[k]))
        for i, (u, row) in enumerate(zip(images, table.cells))
        for j, k in enumerate(row)
    ]


def _enumeration_proofs(edges, entry_proof, order, up, nxt, k2):
    """The enumeration's proofs of the given edges: (size, edge, proof), largest first.

    Edge v = i*k2 + x is proved by base(i) . entry . base(i.x)^-1, base(j)
    proving images[j] rep(j)^-1 along the tree from the tree edges' entry
    proofs; the bases are made only for the cosets these edges join.
    """
    base, out = {0: None}, []

    def base_of(j):
        path = []
        while j not in base:
            path.append(j)
            j = up[j] // k2
        for j in reversed(path):
            i, x = divmod(up[j], k2)
            base[j] = cat(base[i], entry_proof(order[i], x))
        return base[j]

    for v in edges:
        i, x = divmod(v, k2)
        p = cat(base_of(i), entry_proof(order[i], x), inv(base_of(nxt[v])))
        out.append((p[1] if p else 0, v, p))
    out.sort(key=lambda entry: entry[:2], reverse=True)
    return out


def finiteness_certificate(table, entry_proof, rels, k2) -> FinitenessCertificate | None:
    """The words-mode finiteness certificate of a closed coset table, or None.

    ``table[c][x]`` is the coset c.x, for the k2 letters x, and
    ``entry_proof(c, x)`` the proof of that entry, coset 0 and the cosets
    reached from it being live;
    ``rels`` lists the (relator index, word) pairs scanned at every coset.
    None when an edge needs an enumeration proof of more than
    MAX_RAW_FACTORS factors.
    """
    # The shortlex transversal, breadth first from coset 0: the tree edge
    # up[j] = i*k2 + x first reached j, and images[j] = images[i] x.  Edge
    # e = i*k2 + x runs from i to nxt[e].
    number, order, images, up, nxt = {0: 0}, [0], [b""], [0], []
    for i, c in enumerate(order):
        for x, d in enumerate(table[c][:k2]):
            if d not in number:
                number[d] = len(order)
                order.append(d)
                images.append(images[i] + bytes((x,)))
                up.append(i * k2 + x)
            nxt.append(number[d])
    r = len(order)
    # proof[e] proves images[i] x images[nxt[e]]^-1, and the mirror of e,
    # the inverse letter back, has the inverse proof; the smaller of the two
    # names their pair.  Tree edges are free.
    mirror = [d * k2 + (e % k2 ^ 1) for e, d in enumerate(nxt)]
    proof = [None] * (r * k2)
    for e in up[1:]:
        proof[e] = proof[mirror[e]] = ()
    left = r * k2 // 2 - (r - 1)  # the pairs not yet settled
    # The relator cycles, by coset and then relator, each kept as its places
    # off the tree in order: the tree edges' empty proofs change neither a
    # cycle's size nor its product.  For each pair off the tree, the cycles
    # through it; for each cycle, its unsettled places.  A cycle with one
    # place off the tree costs one leaf and goes straight on the heap, where
    # the first through a pair pops first and the rest find it settled.
    cycles, pending, occurs, heap = [], [], {}, []  # heap: (size, pair, cycle, unsettled place)
    for i in range(r):
        for index, word in rels:
            places, c = [], i
            for y in word:
                e = c * k2 + y
                if proof[e] is None:
                    places.append(e)
                    occurs.setdefault(min(e, mirror[e]), []).append(len(cycles))
                c = nxt[e]
            if len(places) == 1:
                heap.append((1, min(places[0], mirror[places[0]]), len(cycles), 0))
            cycles.append((i, index, places))
            pending.append(len(places))
    heapq.heapify(heap)
    # Knuth's generalization of Dijkstra: the cheapest cycle with one
    # unsettled place settles it, as inv(the edges before it) . leaf .
    # inv(the edges after it), and a settled pair offers the cycles it
    # leaves with one unsettled place.  When no cycle settles a pair, the
    # pair with the smallest enumeration proof takes that proof, made for
    # every unsettled pair when the first is needed.
    raw, expanded = None, {}
    while left:
        if heap:
            _, v, n, t = heapq.heappop(heap)
            if proof[v] is not None:
                continue
            i, index, places = cycles[n]
            e, factors = places[t], (DyckFactor(images[i], index, 1),)
            if len(places) > 1:
                back = [proof[mirror[e]] for e in reversed(places)]  # the places' inverse proofs, last place first
                s = len(places) - 1 - t
                factors = _product([*back[s + 1 :], factors, *back[:s]])
        else:
            if raw is None:
                unsettled = [v for v, m in enumerate(mirror) if v < m and proof[v] is None]
                raw = _enumeration_proofs(unsettled, entry_proof, order, up, nxt, k2)
            while proof[raw[-1][1]] is not None:
                raw.pop()
            _, v, p = raw.pop()
            e, factors = v, write_out(p, expanded)
            if factors is None:
                return None  # too large to write out
        proof[e], proof[mirror[e]] = factors, _invert_factors(factors)
        left -= 1
        touched = occurs.get(v, ())
        for n in touched:
            pending[n] -= 1
        for n in dict.fromkeys(touched):
            if pending[n] == 1:
                places, size = cycles[n][2], 1
                for s, e in enumerate(places):
                    if proof[e] is None:
                        t = s
                    else:
                        size += len(proof[e])
                heapq.heappush(heap, (size, min(places[t], mirror[places[t]]), n, t))

    # The table and the cell proofs column by column: cell (i, j) is cell
    # (i, p) and one edge more, p being the parent of j, and its proof is
    # that of (i, p) extended by the edge's.  Only an edge off the tree has
    # a proof to add, and only a cell whose goal is nonempty passes one: a
    # walk on tree edges alone spells the shortlex word of its end.  So a
    # goal is spelled only where its proof is not empty, a generator's too.
    columns, cell_proofs = [range(r)], [[()] * r]
    for e in up[1:]:
        p, x = divmod(e, k2)
        above, below, column = cell_proofs[p], cell_proofs[p][:], []
        for i, c in enumerate(columns[p]):
            d = c * k2 + x
            column.append(nxt[d])
            if proof[d]:
                below[i] = _product((above[i], proof[d]))
        columns.append(column)
        cell_proofs.append(below)
    cells, inverses = tuple(zip(*columns)), [invert(w) for w in images]
    equation_certs = {
        (i, j): EqualityCertificate(cell_proofs[j][i], concat(concat(images[i], images[j]), inverses[k]))
        for i, row in enumerate(cells) for j, k in enumerate(row) if cell_proofs[j][i]
    }
    coverage = {g: nxt[2 * g] for g in range(k2 // 2)}
    coverage_certs = {g: EqualityCertificate(proof[2 * g], concat(bytes((2 * g,)), inverses[e]))
                      for g, e in coverage.items() if proof[2 * g]}
    return FinitenessCertificate(MultiplicationTable(cells), tuple(images), WORDS_MODE, coverage, equation_certs,
                                 coverage_certs)
