"""Multiplication tables of finite groups, one representative per isomorphism class.

The solver searches none of these tables: in both tau modes the
finiteness arm reads its table off a coset enumeration (``cosets``,
``quotient``).  The enumeration serves ``wordrace enum-tables`` and the
public ``enumerate_tables`` and ``table_at_cursor``.  The table record,
``MultiplicationTable``, lives in ``certificates``, which the verifier
shares; the group axioms, ``is_group_table``, live here, since the
verifier needs only a table closed under its goals.

Enumeration works row by row: each row of a group table is the permutation
given by left multiplication, and once rows x and y are placed, the row of
x.y is forced to be their composition.  Backtracking over the free rows with
this propagation (plus Latin pruning) yields complete tables in
lexicographic row-major order.  The first table of each isomorphism class
encountered this way is the lexicographic minimum over all relabelings
fixing 0, i.e. the canonical form; later members of the class are rejected
by an isomorphism search against the representatives of the same element
orders.

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

Three cuts drop a candidate row while it is built, at its first position
that fails; none changes the order in which the remaining tables come.
- Cycle type, in every search: left multiplication by i has all its
  cycles of the order m of i, and m divides r.  So a row is cut as soon
  as a cycle closes at another length than the first, or at a length not
  dividing r, or an open chain grows past m nodes.
- Forward checks of the row rho of i against the placed rows H, in every
  search (Haralick and Elliott's forward checking): for y and z in H, the
  rows row_y o rho and rho o row_z of y.i and i.z agree at every x when
  y.i = i.z and differ at every x otherwise; rho o rho, the row of i.i =
  v = rho(i), is row_v when v is in H and differs from each row of H at
  every x otherwise.
- The stabiliser of the placed rows, in the seeded search: with the seed
  as row 1, rows 0..p-1 are its powers, and the first row chosen is p.
  A relabeling pi that fixes 0..p and commutes with the seed keeps rows
  0..p-1 and carries row p to pi o row_p o pi^-1.  If that is lex smaller,
  so is the relabeled table, which has the seed as row 1 too; so no table
  with this row p is first of its class, and the row is skipped.  The
  relabelings (``_row_p_relabelings``) permute and rotate the seed's
  blocks 2..r/p-1, (r/p - 2)! * p^(r/p - 2) of them; at a later free row
  i, those that fix i and commute with every placed row.  Each is compared
  on the prefix that both rows have determined, and dropped once it
  differs there without being smaller (McKay's isomorph rejection).
No group table has a row the first two cut, and the third skips only
tables that are not first of their class (up to order 11, only at row p).
Every table still yielded is asserted to be a group table, identity,
Latin rows and columns and Light's associativity test
(``is_group_table``), and goes through the isomorphism filter.
"""

from __future__ import annotations

import itertools

from .certificates import MultiplicationTable
from .words import Word


class MissingImageError(ValueError):
    """A word uses a generator with no assigned table element."""


def is_group_table(cells) -> tuple[bool, str | None]:
    """Check the three table invariants; report the first violation found."""
    r = len(cells)
    if r < 1:
        return False, "empty table"
    for i, row in enumerate(cells):
        if len(row) != r:
            return False, f"row {i} has length {len(row)}, expected {r}"
        for j, v in enumerate(row):
            if not 0 <= v < r:
                return False, f"cell ({i},{j}) value {v} out of range"
    for j in range(r):
        if cells[0][j] != j:
            return False, f"identity row violated at column {j}"
    for i in range(r):
        if cells[i][0] != i:
            return False, f"identity column violated at row {i}"
    for i in range(r):
        if len(set(cells[i])) != r:
            return False, f"row {i} is not a permutation"
    for j in range(r):
        if len({cells[i][j] for i in range(r)}) != r:
            return False, f"column {j} is not a permutation"
    # Light's test.  The j with (i.j).k = i.(j.k) for all i, k form a
    # subloop N.  Each pick is the least element the walk x -> x.g from 0 by
    # the earlier picks g has not reached.  While the picks lie in N, the
    # reached set is closed (s.(t.g) = (s.t).g): it is the subsquare they
    # generate, at most half the order if proper.  So the first pick outside
    # N fails, picks that all pass generate the table, and at most log2 r pass.
    picks, reached, inside = [], [0], {0}
    for j in range(1, r):
        if j in inside:
            continue
        for i in range(r):
            ij = cells[i][j]
            for k in range(r):
                if cells[ij][k] != cells[i][cells[j][k]]:
                    return False, f"associativity fails at ({i},{j},{k})"
        picks.append(j)
        for x in reached:  # also visits what is appended meanwhile
            for g in picks:
                if (y := cells[x][g]) not in inside:
                    inside.add(y)
                    reached.append(y)
    return True, None


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
    """Yield every relabeling fixing 0 that carries group table c1 onto c2.

    Generators of c1 are picked greedily, each the least element outside the
    subgroup the earlier ones generate.  A relabeling phi is fixed by their
    images, and it is an isomorphism when it is one-to-one and phi(x.g) =
    phi(x).phi(g) for every element x and generator g.
    """
    r = len(c1)
    if r != len(c2):
        return
    ord1, ord2 = element_orders(c1), element_orders(c2)
    if sorted(ord1) != sorted(ord2):
        return

    def extended(phi, gens, y):
        # phi with the last generator sent to y, carried along x -> x.g to
        # the subgroup that gens generate; None where that fails.
        phi = phi[:]
        phi[gens[-1]] = y
        reached = [x for x in range(r) if phi[x] is not None]
        for x in reached:  # also visits what is appended meanwhile
            for g in gens:
                z, w = c1[x][g], c2[phi[x]][phi[g]]
                if phi[z] is None and w not in phi:
                    phi[z] = w
                    reached.append(z)
                elif phi[z] != w:
                    return None
        return phi

    def rec(phi, gens):
        g = next((x for x in range(r) if phi[x] is None), None)
        if g is None:
            yield tuple(phi)
            return
        for y in range(1, r):
            if ord2[y] == ord1[g] and y not in phi:
                ext = extended(phi, gens + (g,), y)
                if ext is not None:
                    yield from rec(ext, gens + (g,))

    yield from rec([0] + [None] * (r - 1), ())


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


def _row_p_relabelings(r):
    """Every relabeling that fixes 0..p and commutes with the seed of
    ``_row1_seeds(r)``, p the least prime dividing r > 1; identity first.

    The seed's cycles are the blocks kp..kp+p-1.  Such a relabeling keeps
    blocks 0 and 1 and sends each later block onto a later one, rotated:
    (r/p - 2)! * p^(r/p - 2) of them, or the identity alone when r/p <= 2.
    """
    p = next(q for q in range(2, r + 1) if r % q == 0)
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
    the seed and whose free rows, each as it is chosen, no relabeling of
    ``_row_p_relabelings(r)`` that keeps the placed rows makes lex smaller
    (see the module docstring).
    """
    if r == 1:
        yield ((0,),)
        return
    relabelings = []  # in the seeded search, each but the identity, with its inverse
    if row1 is not None:
        relabelings = [(pi, sorted(range(r), key=pi.__getitem__)) for pi in _row_p_relabelings(r)[1:]]
    identity = tuple(range(r))
    rows: list = [None] * r
    rows[0] = identity
    placed = [0]
    chosen = []  # the rows search() placed, in order
    # ys[a][b] is the placed y with y.a = b, or -1 when b is outside the
    # coset H.a of the placed rows H: column a of the table so far.
    ys = [[0 if b == a else -1 for b in range(r)] for a in range(r)]

    def place(idx, perm):
        rows[idx] = perm
        placed.append(idx)
        for a, b in enumerate(perm):
            ys[a][b] = idx

    def unplace_to(mark):
        while len(placed) > mark:
            idx = placed.pop()
            for a, b in enumerate(rows[idx]):
                ys[a][b] = -1
            rows[idx] = None

    def propagate(mark):
        # Close the placed rows under rows[x.g] = rows[x] o rows[g] for the
        # chosen rows g.  They generate the placed rows, so these products
        # give all the others; the rows placed before mark are already
        # closed under all but the last.
        for q, x in enumerate(placed):  # also visits what is appended meanwhile
            fx = rows[x]
            for g in chosen if q >= mark else chosen[-1:]:
                comp = tuple(map(fx.__getitem__, rows[g]))
                existing = rows[comp[0]]
                if existing is None:
                    for a in range(1, r):
                        if ys[a][comp[a]] >= 0:
                            return False
                    place(comp[0], comp)
                elif existing != comp:
                    return False
        return True

    def row_candidates(i):
        # The row rho = row i is built as chains x -> row[x]: head[e] is the
        # first node of the chain ending at e, tail[h] the last node of the
        # chain starting at h, size[h] its node count.  m is the length of the
        # first closed cycle, and 0 until one closes.
        row = [i] + [0] * (r - 1)
        used = 1 << i
        head, tail, size = list(range(r)), list(range(r)), [1] * r
        head[i], tail[0], size[0] = 0, i, 2
        m = 0
        # Forward checks against the placed rows H, which stay placed while
        # this runs: ys[rho(x)][rho(z.x)] = ys[i][rho(z)] for z in H, as both
        # name the y with y.i = i.z, and ys[x][rho(rho(x))] = ys[0][rho(i)].
        checks = sorted((z, rows[z], sorted(range(r), key=rows[z].__getitem__)) for z in placed if z)

        def consistent(pos):
            # Test the equations that row[pos] completes: for z = pos at
            # every x, for an earlier z at x = pos and at z.x = pos; for
            # rho o rho at every x once pos = i, later at x = pos and at
            # the x with rho(x) = pos.
            for z, zrow, zinv in checks:
                if z > pos:
                    break
                want = ys[i][row[z]]
                for x in range(pos + 1) if z == pos else (pos, zinv[pos]):
                    if x <= pos and zrow[x] <= pos and ys[row[x]][row[zrow[x]]] != want:
                        return False
            if pos >= i:
                want = ys[0][row[i]]
                for x in range(pos + 1) if pos == i else (pos, row.index(pos) if used >> pos & 1 else pos):
                    if row[x] <= pos and ys[x][row[row[x]]] != want:
                        return False
            return True

        def still_tied(pos, tied):
            # The relabelings pi still tied with rho, each advanced through
            # the positions c where pi o rho o pi^-1 is now determined; None
            # once one is lex smaller there.
            keep = []
            for pi, inv, c in tied:
                while c <= pos and inv[c] <= pos and pi[row[inv[c]]] == row[c]:
                    c += 1
                if c > pos or inv[c] > pos:
                    keep.append((pi, inv, c))
                elif pi[row[inv[c]]] < row[c]:
                    return None
            return keep

        def rec(pos, tied):
            nonlocal used, m
            if pos == r:
                yield tuple(row)
                return
            h = head[pos]
            for v in range(r):
                bit = 1 << v
                if used & bit or ys[pos][v] >= 0:
                    continue
                row[pos] = v
                kept = still_tied(pos, tied) if consistent(pos) else None
                if kept is None:
                    continue
                used |= bit
                if v == h:  # closes a cycle of size[h] nodes
                    n = size[h]
                    if not m and r % n == 0:
                        m = n
                        yield from rec(pos + 1, kept)
                        m = 0
                    elif n == m:
                        yield from rec(pos + 1, kept)
                else:  # joins the chain ending at pos to the one starting at v
                    n = size[h] + size[v]
                    if not m or n <= m:
                        t = tail[v]
                        head[t], tail[h], size[h] = h, t, n
                        yield from rec(pos + 1, kept)
                        head[t], tail[h], size[h] = v, pos, n - size[v]
                used &= ~bit

        # The relabelings that keep every placed row and fix i: all of them
        # at i = p, and those that commute with every chosen row later.
        yield from rec(1, [(pi, inv, 0) for pi, inv in relabelings if pi[i] == i and all(
            pi[rows[g][x]] == rows[g][pi[x]] for g in chosen for x in range(r))])

    def search():
        i = next((n for n in range(r) if rows[n] is None), None)
        if i is None:
            yield tuple(rows)
            return
        for perm in row1 if i == 1 and row1 is not None else row_candidates(i):
            mark = len(placed)
            place(i, perm)
            chosen.append(i)
            if propagate(mark):
                yield from search()
            chosen.pop()
            unplace_to(mark)

    yield from search()


def enumerate_tables(order: int) -> tuple[MultiplicationTable, ...]:
    """One table per isomorphism class of groups of the given order.

    The representative emitted for each class is the lexicographically
    minimal member of the class (relabelings fixing element 0), because
    generation is in lex order, skips only tables that are not minimal in
    their class, and the first member wins.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    reps: list[tuple] = []
    by_orders: dict[tuple, list] = {}  # isomorphic tables have the same element orders
    for cells in _complete_tables(order, _row1_seeds(order)):
        ok, why = is_group_table(cells)
        assert ok, why
        alike = by_orders.setdefault(tuple(sorted(element_orders(cells))), [])
        if all(find_isomorphism(cells, rep) is None for rep in alike):
            alike.append(cells)
            reps.append(cells)
    return tuple(MultiplicationTable(cells) for cells in reps)


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

    An inverse letter goes through its element's unique inverse, the column
    of 0 in its row; the empty word evaluates to the identity 0.
    """
    cells = table.cells
    e = 0
    for x in w:
        try:
            elem = images[x >> 1]
        except (KeyError, IndexError):
            raise MissingImageError(f"no image for generator index {x >> 1}") from None
        if x & 1:
            elem = cells[elem].index(0)
        e = cells[e][elem]
    return e
