"""Multiplication tables of finite groups, one representative per isomorphism class.

The solver searches none of these tables: in both tau modes the
finiteness arm reads its table off a coset enumeration (``cosets``,
``quotient``).  The enumeration serves ``wordrace enum-tables`` and the
public ``enumerate_tables`` and ``table_at_cursor``.  The table record,
``MultiplicationTable``, and its axioms, ``is_group_table``, live in
``certificates``, which the verifier shares.

Enumeration works row by row: each row of a group table is the permutation
given by left multiplication, and once rows x and y are placed, the row of
x.y is forced to be their composition.  Backtracking over the free rows with
this propagation (plus Latin pruning) yields complete tables in
lexicographic row-major order.  The first table of each isomorphism class
encountered this way is the lexicographic minimum over all relabelings
fixing 0, i.e. the canonical form; later members of the class are rejected
by an explicit isomorphism search.

Row 1 is the left-regular permutation of element 1: it sends 0 to 1 and all
its cycles have the length m of the order of 1.  Any two such permutations
with the same m are conjugate by a relabeling fixing 0 and 1, and relabeling
a table by it keeps row 0 and carries row 1 to the other permutation.  So
the row 1 of a lex-minimal table is the least such permutation for its m,
the seed ``x -> x+1`` inside consecutive blocks of m, wrapping at the end of
each block.  The seed of a smaller m is lex smaller (it has 0 at position
m - 1, where a larger m has m), so a lex-minimal table labels 1 an element
of the least order m > 1 in its group.  By Lagrange and Cauchy that order is
p, the least prime dividing r, so enumeration tries only the seed of p as
row 1.  The tables it skips are never first of their class, so the
representatives and their order are those of the full search.

Two cuts drop a candidate row before it is placed; neither changes the
order in which the remaining tables come.
- Cycle type, in every search: left multiplication by i has all its
  cycles of the order m of i, and m divides r.  So a row is cut as soon
  as a cycle closes at another length than the first, or at a length not
  dividing r, or an open chain grows past m nodes.  No group table has
  such a row, so this search yields exactly the tables it yielded without
  the cut.
- The stabiliser of row p, in the seeded search: with the seed as row 1,
  rows 0..p-1 are its powers, and the first row chosen is p.  A
  relabeling pi that fixes 0..p and commutes with the seed keeps rows
  0..p-1 and carries row p to pi o row_p o pi^-1.  If that is lex smaller,
  so is the relabeled table, which has the seed as row 1 too; so no table
  with this row p is first of its class, and the row is skipped.  The
  relabelings (``_row_p_relabelings``) permute and rotate the seed's
  blocks 2..r/p-1, (r/p - 2)! * p^(r/p - 2) of them.
Every table still yielded goes through ``is_group_table`` and the
isomorphism filter.
"""

from __future__ import annotations

import itertools

from .certificates import MultiplicationTable, is_group_table
from .words import Word


class MissingImageError(ValueError):
    """A word uses a generator with no assigned table element."""


def element_orders(cells) -> tuple[int, ...]:
    orders = []
    for e in range(len(cells)):
        x, m = e, 1
        while x != 0:
            x = cells[x][e]
            m += 1
        orders.append(m)
    return tuple(orders)


def isomorphisms(c1, c2):
    """Yield every relabeling fixing 0 that carries table c1 onto table c2."""
    r = len(c1)
    if r != len(c2):
        return
    ord1 = element_orders(c1)
    ord2 = element_orders(c2)
    if sorted(ord1) != sorted(ord2):
        return
    phi = [0] * r
    used = [False] * r
    used[0] = True

    def consistent(x):
        for p in range(x + 1):
            row = c1[p]
            for q in range(x + 1):
                z = row[q]
                if z <= x and c2[phi[p]][phi[q]] != phi[z]:
                    return False
        return True

    def rec(x):
        if x == r:
            yield tuple(phi)
            return
        for y in range(1, r):
            if used[y] or ord2[y] != ord1[x]:
                continue
            phi[x] = y
            used[y] = True
            if consistent(x):
                yield from rec(x + 1)
            used[y] = False
        phi[x] = 0

    yield from rec(1)


def find_isomorphism(c1, c2):
    """Some relabeling fixing 0 carrying c1 onto c2, or None."""
    return next(isomorphisms(c1, c2), None)


def _row1_seeds(r):
    """[the least permutation sending 0 to 1 whose cycles all have length p],
    p the least prime dividing r; [] for r = 1."""
    for p in range(2, r + 1):
        if r % p == 0:
            return [tuple(x + 1 if (x + 1) % p else x + 1 - p for x in range(r))]
    return []


def _least_prime(r):
    return next(q for q in range(2, r + 1) if r % q == 0)


def _row_p_relabelings(r):
    """Every relabeling that fixes 0..p and commutes with the seed of
    ``_row1_seeds(r)``, p the least prime dividing r > 1; identity first.

    The seed's cycles are the blocks kp..kp+p-1.  Such a relabeling keeps
    blocks 0 and 1 and sends each later block onto a later one, rotated:
    (r/p - 2)! * p^(r/p - 2) of them, or the identity alone when r/p <= 2.
    """
    p = _least_prime(r)
    later = range(2, r // p)
    out = []
    for targets in itertools.permutations(later):
        for shifts in itertools.product(range(p), repeat=len(later)):
            pi = list(range(r))
            for k, t, s in zip(later, targets, shifts):
                for j in range(p):
                    pi[k * p + j] = t * p + (j + s) % p
            out.append(tuple(pi))
    return out


def _complete_tables(r, row1=None):
    """Group tables of order r with identity 0, in row-major lex order.

    All of them, or, given row1 = ``_row1_seeds(r)``, those whose row 1 is
    the seed and whose row p no relabeling of ``_row_p_relabelings(r)``
    makes lex smaller (see the module docstring).
    """
    if r == 1:
        yield ((0,),)
        return
    p, relabelings = None, []
    if row1 is not None:  # each relabeling with its inverse
        p = _least_prime(r)
        relabelings = [(pi, sorted(range(r), key=pi.__getitem__)) for pi in _row_p_relabelings(r)]
    identity = tuple(range(r))
    rows: list = [None] * r
    rows[0] = identity
    placed = [0]
    col_used = [1 << j for j in range(r)]

    def place(idx, perm):
        rows[idx] = perm
        placed.append(idx)
        for j in range(r):
            col_used[j] |= 1 << perm[j]

    def unplace_to(mark):
        while len(placed) > mark:
            idx = placed.pop()
            perm = rows[idx]
            rows[idx] = None
            for j in range(r):
                col_used[j] &= ~(1 << perm[j])

    def propagate(start):
        # Close the placed rows under composition: rows[x.y] = rows[x] o rows[y].
        qi = start
        while qi < len(placed):
            n = placed[qi]
            qi += 1
            fn = rows[n]
            for m in list(placed):
                fm = rows[m]
                for x, fx, y, fy in ((n, fn, m, fm), (m, fm, n, fn)):
                    target = fx[y]
                    comp = tuple(fx[fy[j]] for j in range(r))
                    existing = rows[target]
                    if existing is None:
                        for j in range(1, r):
                            if col_used[j] & (1 << comp[j]):
                                return False
                        place(target, comp)
                    elif existing != comp:
                        return False
                    if x == y:
                        break
        return True

    def row_candidates(i):
        # The row is built as chains x -> row[x]: head[e] is the first node of
        # the chain ending at e, tail[h] the last node of the chain starting
        # at h, size[h] its node count.  m is the length of the first closed
        # cycle, and 0 until one closes.
        row = [i] + [0] * (r - 1)
        used = 1 << i
        head, tail, size = list(range(r)), list(range(r)), [1] * r
        head[i], tail[0], size[0] = 0, i, 2
        m = 0

        def rec(pos):
            nonlocal used, m
            if pos == r:
                yield tuple(row)
                return
            h = head[pos]
            for v in range(r):
                bit = 1 << v
                if used & bit or col_used[pos] & bit:
                    continue
                row[pos] = v
                used |= bit
                if v == h:  # closes a cycle of size[h] nodes
                    n = size[h]
                    if not m and r % n == 0:
                        m = n
                        yield from rec(pos + 1)
                        m = 0
                    elif n == m:
                        yield from rec(pos + 1)
                else:  # joins the chain ending at pos to the one starting at v
                    n = size[h] + size[v]
                    if not m or n <= m:
                        t = tail[v]
                        head[t], tail[h], size[h] = h, t, n
                        yield from rec(pos + 1)
                        head[t], tail[h], size[h] = v, pos, n - size[v]
                used &= ~bit

        yield from rec(1)

    def relabeled_smaller(perm):
        # Is some pi o perm o pi^-1 lex smaller than perm?
        for pi, inv in relabelings:
            for x, y in enumerate(perm):
                z = pi[perm[inv[x]]]
                if z != y:
                    if z < y:
                        return True
                    break
        return False

    def search():
        i = next((n for n in range(r) if rows[n] is None), None)
        if i is None:
            yield tuple(rows)
            return
        for perm in row1 if i == 1 and row1 is not None else row_candidates(i):
            if i == p and relabeled_smaller(perm):
                continue
            mark = len(placed)
            place(i, perm)
            if propagate(mark):
                yield from search()
            unplace_to(mark)

    yield from search()


_TABLE_CACHE: dict[int, tuple[MultiplicationTable, ...]] = {}


def enumerate_tables(order: int) -> tuple[MultiplicationTable, ...]:
    """One table per isomorphism class of groups of the given order.

    The representative emitted for each class is the lexicographically
    minimal member of the class (relabelings fixing element 0), because
    generation is in lex order, skips only tables that are not minimal in
    their class, and the first member wins.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    cached = _TABLE_CACHE.get(order)
    if cached is not None:
        return cached
    reps: list[tuple] = []
    for cells in _complete_tables(order, _row1_seeds(order)):
        ok, why = is_group_table(cells)
        assert ok, why
        if all(find_isomorphism(cells, rep) is None for rep in reps):
            reps.append(cells)
    result = tuple(MultiplicationTable(cells) for cells in reps)
    _TABLE_CACHE[order] = result
    return result


def table_at_cursor(c: int, max_order: int = 8) -> MultiplicationTable | None:
    """Fixed total enumeration: tables of order 1, then 2, ... up to ``max_order``, by default criterion 4's."""
    if c < 0:
        raise ValueError("cursor must be a natural number")
    order = 1
    while order <= max_order:
        block = enumerate_tables(order)
        if c < len(block):
            return block[c]
        c -= len(block)
        order += 1
    return None


def eval_in_table(table: MultiplicationTable, images, w: Word) -> int:
    """Evaluate a word in the table; images maps generator index -> element.

    Inverse letters go through the table's unique inverses; the empty word
    evaluates to the identity 0.
    """
    cells = table.cells
    inv = table.inverses
    e = 0
    for x in w:
        try:
            elem = images[x >> 1]
        except (KeyError, IndexError):
            raise MissingImageError(f"no image for generator index {x >> 1}") from None
        if x & 1:
            elem = inv[elem]
        e = cells[e][elem]
    return e
