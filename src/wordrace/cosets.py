"""Proof-carrying coset enumeration: the engine of both race arms.

G1 = <S | X, R_0, R_1, ...> is finite exactly when Todd-Coxeter enumeration
of the cosets of its trivial subgroup closes on some prefix of the
relators.  The enumeration runs with the HLT strategy: each coset in order
of definition scans every relator, defining cosets to fill the gaps, then
fills its own row (Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, ch. 5).

Every table entry c.x = d carries a proof (a node of ``proofs``) of
rep(c) x rep(d)^-1, rep(c) being the word that defined coset c: the empty
proof for a definition, and for a deduction at coset c from relator R
inv(the prefix's proofs) . rep(c) R rep(c)^-1 . (the suffix's proofs), as
in Havas and Ramsay, "Proving a group trivial made easy" (2000).
Coincidences go through a union-find whose forward pointers carry proofs
of rep(d) rep(find(d))^-1.  Representatives are (parent rep, letter)
chains, spelled out only for a certificate.

The inline prefix, X included, is scanned from the first step; the m-th
relator of a ``family:`` or ``stream:`` source joins after JOIN_STEPS * 2^m
steps and is then scanned at every live coset.  A step is one definition,
one deduction, one coincidence (one dead coset's row moved) or one coset
found complete.  Live cosets are capped at COSET_BASE + isqrt(steps), so
memory grows with the square root of the steps; while the table is full a
step is one deduction-only lookahead scan of one (coset, relator) pair, and
dead cosets' slots are reused.

Until a nonempty relator joins the enumeration waits, idle (spent if none
can come); it then first defines the path of the word ``_path`` (empty
unless a subclass sets it) from coset 0.  The step that finds the table
closed returns True, and the enumeration waits, idle, for a relator to
change the table, for ever once the source is exhausted.

Relator n traces closed at a live coset d once n < scanned[d], and stays
closed: scanned[d] rises only when the trace closes, and a processed
coincidence has moved entries onto the surviving coset, opening no cycle.  A
lookahead scan of such a pair is idle too.  Idle steps are still steps,
counted, not taken.  The open cosets, those live with relators left to
scan, are kept in a sorted list, so the end of a run of closed pairs is
one bisection away, not a scan of every slot.

The enumeration of G = <S | R_0, R_1, ...> is complete for X = 1: it is
fair (every relator joins, every coset is processed in order and scans
every relator, and the coset cap grows without bound; the definitions
made first along X are finitely many), so its limit is the regular
G-set, and a word equal to 1 eventually leads from coset 0 back to it
(Sims, *Computation with Finitely Presented Groups*, ch. 5).

``quotient.FinitenessTask`` is this class over G1, building the arm's
certificate on a closed table, and ``derivation.EqualityTask`` this class
over G, with X as its path and X traced along it after each step: the
race steps, skips and counts the enumerations themselves.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque

from .presentation import Presentation
from .proofs import cat, inv, leaf
from .words import invert

JOIN_STEPS = 1000  # the m-th relator past the inline prefix joins after JOIN_STEPS * 2^m steps
COSET_BASE = 256  # live cosets allowed after s steps: COSET_BASE + isqrt(s)


class CosetEnumeration:
    """HLT enumeration of the cosets of 1 in an extended presentation, one step per call.

    ``step()`` returns True at the step that finds the table closed, else
    None.  ``idle`` counts the next steps certain to return None (math.inf
    if all are, and the enumeration is ``spent``): ``step()`` returns them
    without resuming the enumeration, and ``skip(k)`` counts k at once.
    ``steps_taken`` counts both kinds.  Slots are never removed, so
    ``len(_table)`` is the number of slots ever held.
    """

    _path = b""  # the reduced word whose path from coset 0 is defined first

    def __init__(self, extended: Presentation):
        self.extended = extended
        self.k2 = 2 * extended.alphabet.k
        self.steps_taken = 0
        self.live = 1
        self._next_relator = extended.inline_count
        self._rels = [(i, w) for i in range(self._next_relator) if (w := extended.relator(i))]
        self._join_at = JOIN_STEPS
        self._next_check = 1
        # Per coset slot; a free slot has parent -1 and no row.  Row c holds
        # the cosets c.x for the 2k letters x (-1 if undefined), then the
        # proofs of those entries.
        self._blank = [-1] * self.k2 + [None] * self.k2
        self._table = [self._blank[:]]
        self._parent = [0]
        self._uproof = [None]  # proof of rep(c) rep(parent[c])^-1
        self._rep = [()]  # () is the empty word, (rep, x) is rep.x
        self._scanned = [0]  # relators scanned and filled at the coset
        self._open = [0] if self._rels else []  # the live cosets with relators left to scan, in slot order
        self._free: list[int] = []
        self._queue = deque([0])  # cosets to process, in order of definition
        self._look = (0, -1)  # the lookahead's last (coset, relator)
        self.idle = 0
        self._events = self._run()

    def step(self):
        self.steps_taken += 1
        if self.idle:
            self.idle -= 1
            return None
        if self.steps_taken >= self._next_check:
            self._schedule()
        return next(self._events)

    @property
    def spent(self) -> bool:
        """Whether every later step returns None."""
        return self.idle == math.inf

    def skip(self, k):
        """Count k idle steps without taking them."""
        if not 0 <= k <= self.idle:
            raise ValueError("only idle steps can be skipped")
        self.steps_taken += k
        self.idle -= k

    def _schedule(self):
        """Set the coset limit from the step count, join a relator when due, and set the next check."""
        root = math.isqrt(self.steps_taken)
        self._limit = COSET_BASE + root
        if self.steps_taken >= self._join_at:
            self._join()
        self._next_check = min((root + 1) ** 2, self._join_at)

    def _join(self):
        """Join the next relator and double the join time: the m-th past the prefix joins at JOIN_STEPS * 2^m."""
        n = self._next_relator
        if self.extended.available(n + 1) <= n:
            self._join_at = math.inf  # the source is exhausted
            return
        word = self.extended.relator(n)
        self._next_relator = n + 1
        self._join_at *= 2  # an empty relator takes its slot too
        if word:
            self._rels.append((n, word))
            parent = self._parent
            self._open = [c for c in range(len(parent)) if parent[c] == c]
            self._queue.extend(self._open)

    # -- the enumeration: a generator yielding once per step ---------------

    def _run(self):
        if not self._rels and self.extended.available(self._next_relator + 1) <= self._next_relator:
            self._join_at = math.inf  # no nonempty relator, and none to come
        while not self._rels:  # nothing to scan until a relator joins
            self.idle = self._join_at - self.steps_taken - 1
            yield None
        c, table = 0, self._table
        for x in self._path:  # reduced, and defined first: c.x is undefined at every letter
            if self.live >= self._limit:
                break
            self._define(c, x)
            c = table[c][x]
            yield None
        queue, parent, scanned = self._queue, self._parent, self._scanned
        while True:
            if queue:
                c = queue.popleft()
                if parent[c] == c:
                    yield from self._process(c)
                continue
            # Closed means that every live coset has scanned every relator and
            # has a full row; the queue emptying should imply it, and this
            # checks it before the step reports the table closed.
            rels = len(self._rels)
            unfinished = [
                c for c in range(len(parent)) if parent[c] == c and (scanned[c] < rels or -1 in table[c])
            ]
            if unfinished:
                queue.extend(unfinished)
                continue
            yield True
            while not queue:  # closed: wait for a relator to join
                self.idle = self._join_at - self.steps_taken - 1
                yield None

    def _process(self, c):
        parent, scanned, rels = self._parent, self._scanned, self._rels
        fresh = True  # whether the scan of rels[scanned[c]] starts over; it goes on while only it changes the table
        while parent[c] == c:
            n = scanned[c]
            if n < len(rels):
                word = rels[n][1]
                if fresh:
                    f, i, b, j = c, 0, c, len(word)
                f, i, b, j = self._trace(word, f, i, b, j)
                fresh = j <= i + 1
                if fresh:
                    if j > i or f != b:
                        yield from self._event(c, rels[n], f, i, b, j)
                    else:
                        scanned[c] = n + 1
                        if n + 1 == len(rels):
                            del self._open[bisect_left(self._open, c)]
                    continue
                d, x = f, word[i]
            else:
                row = self._table[c]
                if -1 not in row:
                    yield None  # the coset is complete
                    return
                d, x = c, row.index(-1)
            if self.live < self._limit:
                self._define(d, x)
                yield None
            else:
                fresh = True
                yield from self._look_ahead(d, x)

    def _trace(self, word, f, i, b, j):
        """Scan word[i:j] forwards from f, then backwards from b: (f, i, b, j), the gap left between them."""
        table = self._table
        while i < j:
            d = table[f][word[i]]
            if d < 0:
                break
            f = d
            i += 1
        while j > i:
            d = table[b][word[j - 1] ^ 1]
            if d < 0:
                break
            b = d
            j -= 1
        return f, i, b, j

    def _look_ahead(self, c, x):
        """Steps while the table is full and c.x is still to be defined.

        Each scans the next (coset, relator) pair without defining, and may
        deduce an entry or find a coincidence.  A full table has every slot
        live (see ``_closed_run``), so the cursor steps through the slots in
        order.  A closed pair finds nothing and is not traced; the closed
        pairs after it are idle, and the cursor jumps past them.
        """
        parent, table, rels, scanned = self._parent, self._table, self._rels, self._scanned
        d, n = self._look
        while self.live >= self._limit and parent[c] == c and table[c][x] < 0:
            n += 1
            if n >= len(rels):
                d, n = (d + 1) % len(parent), 0
            if n < scanned[d]:  # a closed pair, the first of a run
                self.idle, (d, n) = self._closed_run(d, n)
                yield None
                continue
            f, i, b, j = self._trace(rels[n][1], d, 0, d, len(rels[n][1]))
            if j == i + 1 or (j == i and f != b):
                yield from self._event(d, rels[n], f, i, b, j)
            else:
                yield None
        self._look = (d, n)

    def _closed_run(self, d, n):
        """(k, the k-th pair) for the k closed pairs after (d, n), up to the next open one, check or wrap.

        The table is full, so every slot is live: slots are added only when
        none is free, and never past the limit.  Up to the wrap back to slot
        0, pair (e, m) is number e * rels + m in cursor order, and the next
        open pair is (e, scanned[e]) for the first open coset e >= d, found
        in the sorted open list; with none, the run ends at the wrap.
        """
        scanned, rels, open_ = self._scanned, len(self._rels), self._open
        i = bisect_left(open_, d)
        end = open_[i] * rels + scanned[open_[i]] if i < len(open_) else len(scanned) * rels
        here = d * rels + n
        k = min(self._next_check - self.steps_taken - 1, end - here - 1)
        return k, divmod(here + k, rels)

    def _define(self, c, x):
        table, parent = self._table, self._parent
        if self._free:
            d = self._free.pop()
        else:
            d = len(table)
            for column in (table, parent, self._uproof, self._rep, self._scanned):
                column.append(None)
        table[d] = self._blank[:]
        parent[d] = d
        self._uproof[d] = None
        self._rep[d] = (self._rep[c], x)
        self._scanned[d] = 0
        insort(self._open, d)
        table[c][x] = d
        table[d][x ^ 1] = c
        self.live += 1
        self._queue.append(d)

    def _proof(self, c, x):
        """The proof of the entry c.x."""
        return self._table[c][self.k2 + x]

    def _walk(self, c, word):
        """The proofs of the entries that word passes from c, in order."""
        table, proofs = self._table, []
        for x in word:
            proofs.append(self._proof(c, x))
            c = table[c][x]
        return proofs

    def _set(self, c, x, d, proof):
        """Enter c.x = d with proof, proving rep(c) x rep(d)^-1, and its mirror d.x^-1 = c with its inverse."""
        k2, row_c, row_d = self.k2, self._table[c], self._table[d]
        row_c[x], row_d[x ^ 1] = d, c
        row_c[k2 + x], row_d[k2 + (x ^ 1)] = proof, inv(proof)

    def _event(self, c, rel, f, i, b, j):
        """The steps of what the scan of relator rel at c found between f and b.

        A gap of one letter is deduced, f.word[i] = b, in one step; no gap
        with f != b is a coincidence, a step per dead coset.
        """
        index, word = rel
        parts = [inv(p) for p in reversed(self._walk(c, word[:i]))]
        parts.append(leaf(self._rep[c], index))
        parts += self._walk(c, invert(word[j:]))
        proof = cat(*parts)  # proves rep(f) word[i:j] rep(b)^-1
        if j == i:
            yield from self._coincide(f, b, proof)
        else:
            self._set(f, word[i], b, proof)
            yield None

    def _coincide(self, a, b, proof):
        """Merge a and b, proof proving rep(a) rep(b)^-1, and all that follows: a step per dead coset."""
        table, parent, k2 = self._table, self._parent, self.k2
        dead = []
        self._merge(a, b, proof, dead)
        for g in dead:  # grows while it is walked
            row = table[g]
            for x in range(k2):
                d = row[x]
                if d < 0:
                    continue
                xi = x ^ 1
                table[d][xi], table[d][k2 + xi] = -1, None  # the mirror entry d.x^-1 = g
                mu, p_mu = self._find(g)
                nu, p_nu = self._find(d)
                edge = cat(inv(p_mu), self._proof(g, x), p_nu)  # proves rep(mu) x rep(nu)^-1
                z = table[mu][x]
                if z >= 0:
                    self._merge(nu, z, cat(inv(edge), self._proof(mu, x)), dead)
                elif (z := table[nu][xi]) >= 0:
                    self._merge(mu, z, cat(edge, self._proof(nu, xi)), dead)
                else:
                    self._set(mu, x, nu, edge)
            yield None
        for g in dead:
            table[g] = self._rep[g] = self._uproof[g] = None
            parent[g] = -1
        self._free.extend(reversed(dead))

    def _find(self, c):
        """(root, proof of rep(c) rep(root)^-1), compressing the path."""
        parent, uproof = self._parent, self._uproof
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        proof = None
        for d in reversed(path):
            proof = cat(uproof[d], proof)
            parent[d], uproof[d] = c, proof
        return c, proof

    def _merge(self, a, b, proof, dead):
        phi, p_a = self._find(a)
        psi, p_b = self._find(b)
        if phi == psi:
            return
        proof = cat(inv(p_a), proof, p_b)  # proves rep(phi) rep(psi)^-1
        if phi < psi:  # the smaller slot survives, so coset 0 always does
            phi, psi, proof = psi, phi, inv(proof)
        if self._scanned[phi] < len(self._rels):
            del self._open[bisect_left(self._open, phi)]
        self._parent[phi], self._uproof[phi] = psi, proof
        self.live -= 1
        dead.append(phi)
