"""Finite groups as multiplication tables, plus subgroup machinery and G-sets.

Elements are indices 0..n-1 with index 0 reserved for the identity where a
constructor controls the labeling.  Table entries, G-set points and closure
seeds enter through ``operator.index``, so a float or a string is refused,
never truncated.  Objects are validated on generators.  Every group
computes one greedy generating set at construction and checks
associativity with Light's test on it; the center and the abelian test
compare with the generators only, since an element is central exactly
when it commutes with each of them.  A subgroup checks closure on its own
greedy generators.  A G-set checks rho(g s) = rho(g) rho(s) for every
element g and every generator s, which by induction on word length makes
rho a homomorphism.  A point-indexed vector is a sparse map, {point:
entry}, and ``GSet.move`` is the one way a G-set moves it.

A group and a G-set each keep one int64 image of their table, made once
(``FiniteGroup.table_array``, ``GSet.action_array``).  One size rule,
``_by_table``, picks whole int64 tables or entry-by-entry work for every
table this package builds and certifies (here, and for graphs and
spanning-tree candidates in ``gflows``).  The group constructors build
their tables by broadcast.  An integer group table at or above the rule
is certified by whole-table scans: one range test, the identity as the
first row and column equal to arange(n), the inverses by one argmax per
row, and Light's test as one fancy-index comparison per generator.  A
G-set table there is certified by one seen-array scatter for the
permutations and one fancy-index comparison per generator for the
homomorphism.  A smaller table, or one whose entries are not integers, is
checked entry by entry, which is faster there.  Both forms refuse with
the same messages and report the same first failure.

Subgroups grow by cosets: ``FiniteGroup.closure`` extends a known subgroup
B to <B, g> as a union of right cosets of B (Dimino), and both the greedy
generators and the subgroup enumeration extend what they already have
instead of closing again from the identity.  A conjugacy class of
subgroups is an orbit under conjugation by the generators.  Constructors
refuse an order above ``MAX_ORDER`` before they build its table.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError

# Construction cap: the largest instance the acceptance surface needs is
# the symmetric group on 5 points (order 120).  Subgroup *enumeration*
# stays capped at 64, where extending every subgroup by one element class
# at a time (a few thousand coset extensions at most) is fast.
MAX_ORDER = 120
MAX_SUBGROUP_ENUMERATION_ORDER = 64

# Tables of at least this many entries are built and certified as whole
# int64 arrays (group multiplication tables, G-set actions, graph edges and
# edge actions, spanning-tree candidates in arrays), smaller ones entry by
# entry; ``_by_table`` reads it.  Measured on a 2-vCPU Xeon, the two forms
# cost the same near 150 entries for a G-set (15 against 14 us at 144), near
# 250 for spanning-tree candidates (107 against 121 us at 238, 136 against
# 128 us at 226), and near 200-250 entries of the edge action for a whole
# Cayley or complete graph built and checked (the array form 3-17% slower
# at 180-216 entries, 6-7% faster at 196 and 243, 8-26% faster at 256-300):
# the constant sits at the largest.  A group table crosses over lower, near
# 150 entries (C:12 37 against 37 us, D:6 44 against 44): its scans are 1.4-2.3
# times slower at 16-64 entries, 13-15% faster at 196-225 (so orders 13-15
# lose a few us to the constant), 19-25% at 256 and 4-8 times at order 120.
_ARRAY_CHECK_ENTRIES = 256


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        element_names: Optional[Sequence[str]] = None,
        spec: str = "",
        generator_indices: Optional[Dict[str, int]] = None,
        point_action: Optional[List[Tuple[int, ...]]] = None,
    ):
        n = len(table)
        if n == 0:
            raise InvalidParameterError("group order must be positive")
        _check_order(n)
        self.order = n
        array = _int64_table(table) if _by_table(n * n) else None
        self._table_array: Optional[np.ndarray] = None
        if array is None:
            self.table = [list(map(operator.index, row)) for row in _python_rows(table)]
            for row in self.table:
                if len(row) != n or min(row) < 0 or max(row) >= n:
                    raise InvalidParameterError("multiplication table is not closed")
            self.identity = self._find_identity()
            self.inverses = self._find_inverses()
            self.generators = self._greedy_generators(range(n))
            self._check_associativity()
        else:
            self.identity, inverses = _identity_and_inverses(array)
            self.table, self.inverses = array.tolist(), inverses.tolist()
            self.generators = self._greedy_generators(range(n))
            _check_associativity_by_table(array, self.generators)
            self._table_array = _read_only(array)
        self.element_names = list(element_names) if element_names else [f"g{i}" for i in range(n)]
        if len(self.element_names) != n:
            raise InvalidParameterError("element_names length mismatch")
        self.spec = spec or f"table:{n}"
        self.generator_indices = dict(generator_indices or {})
        self.point_action = point_action
        self._subgroups_cache: Optional[List["Subgroup"]] = None
        self._classes_cache: Optional[Tuple[List["Subgroup"], Dict[Tuple[int, ...], int]]] = None
        self._as_group_cache: Dict[Tuple[int, ...], Tuple["FiniteGroup", List[int]]] = {}

    # -- construction-time validation ---------------------------------------

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                return e
        raise InvalidParameterError("no identity element in table")

    def _find_inverses(self) -> List[int]:
        e = self.identity
        inv = []
        for x, row in enumerate(self.table):
            y = row.index(e) if e in row else -1
            if y < 0 or self.table[y][x] != e:
                raise InvalidParameterError(f"element {x} has no inverse")
            inv.append(y)
        return inv

    def _greedy_generators(self, elements: Sequence[int]) -> Tuple[int, ...]:
        """Greedy generators of the subgroup on `elements`.

        Adds the smallest element not yet reached until the closure covers
        `elements`, extending the subgroup reached so far by cosets.  Raises
        when a closure leaves them, i.e. when they are not closed under
        multiplication.
        """
        target = set(elements)
        gens: Tuple[int, ...] = ()
        have: Tuple[int, ...] = (self.identity,)
        while len(have) < len(target):
            g = min(target.difference(have))
            have = self.closure((g,), have, gens)
            gens += (g,)
            if not target.issuperset(have):
                raise InvalidParameterError("subgroup not closed under multiplication")
        return gens

    def _check_associativity(self) -> None:
        """Light's test: (a s) b == a (s b) for every generator s and all a, b.

        The elements s that pass are closed under products, and every
        element is a product of generators, so the whole table is associative.
        """
        t = self.table
        for s in self.generators:
            ts = t[s]
            for a in range(self.order):
                ta = t[a]
                if t[ta[s]] != [ta[x] for x in ts]:
                    raise InvalidParameterError(f"associativity fails at elements ({a}, {s})")

    @property
    def table_array(self) -> np.ndarray:
        """The multiplication table as a read-only int64 array, made when
        first read."""
        if self._table_array is None:
            self._table_array = _read_only(np.array(self.table, dtype=np.int64))
        return self._table_array

    # -- basic operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conjugate(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return self.table[self.table[g][h]][self.inverses[g]]

    def power(self, a: int, k: int) -> int:
        out = self.identity
        for _ in range(k % self.element_order(a)):  # also for k < 0
            out = self.table[out][a]
        return out

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != self.identity:
            x = self.table[x][a]
            n += 1
        return n

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in self.generators for b in self.generators)

    def center(self) -> Tuple[int, ...]:
        t = self.table
        return tuple(
            g for g in range(self.order) if all(t[g][s] == t[s][g] for s in self.generators)
        )

    def closure(
        self, seed: Sequence[int], base: Sequence[int] = (), base_gens: Sequence[int] = ()
    ) -> Tuple[int, ...]:
        """Sorted subgroup generated by `base_gens` and the seed elements.

        `base` is the subgroup B that `base_gens` generate (the trivial one
        when empty), and the result grows it as a union of right cosets B r
        (Dimino).  A product r s of a coset representative r and a generator
        s that lies outside the union adds its whole coset B r s.  Once right
        multiplication by every generator keeps the union, it is a subgroup;
        with B trivial this is a breadth-first search from the identity.
        """
        t = self.table
        base = base or (self.identity,)
        gens = sorted(set(base_gens).union(map(operator.index, seed)))
        if gens and not 0 <= gens[0] <= gens[-1] < self.order:
            raise InvalidParameterError("closure seed is not an element index")
        els = set(base)
        reps = [self.identity]
        for r in reps:
            row = t[r]
            for s in gens:
                x = row[s]
                if x not in els:
                    els.update([t[h][x] for h in base])
                    reps.append(x)
        return tuple(sorted(els))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.spec}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup recorded as a sorted element-index set of its parent."""

    parent: FiniteGroup
    elements: Tuple[int, ...]
    _generators: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        G = self.parent
        if G.identity not in self.elements:
            raise InvalidParameterError("subgroup misses the identity")
        if len(set(self.elements)) != len(self.elements):
            raise InvalidParameterError("subgroup lists an element twice")
        # a finite set with the identity that is closed under products is a
        # subgroup; the greedy generators check the closure
        object.__setattr__(self, "_generators", G._greedy_generators(self.elements))
        if G.order % len(self.elements) != 0:
            raise InvalidParameterError("subgroup size does not divide group order")

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self) -> int:
        return self.parent.order // self.order

    def generators(self) -> Tuple[int, ...]:
        """Deterministic generating set: greedily add smallest missing element."""
        return self._generators

    def is_cyclic(self) -> bool:
        return self.cyclic_generator() is not None

    def cyclic_generator(self) -> Optional[int]:
        for g in self.elements:
            if self.parent.element_order(g) == self.order:
                return g
        return None

    def as_group(self) -> Tuple[FiniteGroup, List[int]]:
        """The subgroup as a standalone group plus the element embedding.

        Cached on the parent so repeated calls return the same object,
        letting lattices over the subgroup compare by group identity.
        """
        G = self.parent
        cached = G._as_group_cache.get(self.elements)
        if cached is not None:
            return cached[0], list(cached[1])
        embed = list(self.elements)
        pos = np.zeros(G.order, dtype=np.int64)
        pos[embed] = np.arange(len(embed))
        table = pos[G.table_array[np.ix_(embed, embed)]]
        H = FiniteGroup(table, spec=f"{G.spec}|sub{embed}")
        G._as_group_cache[self.elements] = (H, embed)
        return H, list(embed)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={self.elements})"


def whole_group(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (G.identity,))


def subgroup_from_generators(G: FiniteGroup, gens: Sequence[int]) -> Subgroup:
    return Subgroup(G, G.closure(gens))


# -- constructors ------------------------------------------------------------


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise InvalidParameterError(f"group order {n} exceeds cap {MAX_ORDER}")


def _power_name(sym: str, k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return sym
    return f"{sym}{k}"


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n with generator s."""
    if n < 1:
        raise InvalidParameterError(f"cyclic group order must be >= 1, got {n}")
    _check_order(n)
    points = np.arange(n)
    table = (points[:, None] + points) % n
    names = ["e"] + [_power_name("s", i) for i in range(1, n)]
    gens = {"s": 1 % n}
    return FiniteGroup(table, element_names=names, spec=f"C:{n}", generator_indices=gens)


def semidirect(n: int, m: int, r: int) -> FiniteGroup:
    """The group <s, t | s^n = t^m = e, t^-1 s t = s^r>.

    Elements are labeled s^i t^j with index i*m + j.  Requires
    r^m == 1 (mod n); the constructor permits any gcd(n, m).
    """
    if n < 1 or m < 1:
        raise InvalidParameterError("semidirect orders must be positive")
    r = r % n if n > 1 else 0
    if pow(r, m, n) != 1 % n:
        raise InvalidParameterError(
            f"invalid twist: r^m = {r}^{m} is not congruent to 1 modulo {n}"
        )
    if gcd(r, n) != 1:
        raise InvalidParameterError(f"twist r={r} is not invertible modulo {n}")
    _check_order(n * m)
    rinv = pow(r, -1, n) if n > 1 else 0
    shifts = [pow(rinv, j, n) for j in range(m)]
    # (s^i1 t^j1)(s^i2 t^j2) = s^(i1 + i2 rinv^j1) t^(j1 + j2), index i*m + j
    i, j = np.divmod(np.arange(n * m), m)
    shift = np.array(shifts, dtype=np.int64)[j]
    table = (i[:, None] + i * shift[:, None]) % n * m + (j[:, None] + j) % m
    names = []
    for i in range(n):
        for j in range(m):
            nm = _power_name("s", i) + _power_name("t", j)
            names.append(nm or "e")
    gens = {"s": 1 % n * m, "t": 1 % m}
    return FiniteGroup(
        table, element_names=names, spec=f"SD:{n},{m},{r}", generator_indices=gens
    )


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (t s t^-1 = s^-1)."""
    if n < 1:
        raise InvalidParameterError("dihedral parameter must be >= 1")
    G = semidirect(n, 2, (n - 1) % n if n > 1 else 0)
    G.spec = f"D:{n}"
    return G


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n points (n <= 5), with the natural point action."""
    if not 1 <= n <= 5:
        raise InvalidParameterError(f"symmetric group supported for 1 <= n <= 5, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    # entry (i, j) is the index of x -> p_i[p_j[x]]: the sorted perms' base-n codes increase
    P = np.array(perms, dtype=np.int64)
    weights = n ** np.arange(n - 1, -1, -1)
    table = np.searchsorted(P @ weights, P[:, P] @ weights)
    names = [_cycle_name(p) for p in perms]
    return FiniteGroup(
        table,
        element_names=names,
        spec=f"S:{n}",
        point_action=[tuple(p) for p in perms],
    )


def _cycle_name(perm: Tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) or "e"


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Direct product with index (a, b) -> a*|H| + b."""
    n, m = G.order, H.order
    if n * m > MAX_ORDER:
        raise InvalidParameterError(f"product order {n * m} exceeds cap {MAX_ORDER}")
    # entry (a m + b, c m + d) is (a c) m + b d
    table = (G.table_array[:, None, :, None] * m + H.table_array[:, None]).reshape(n * m, n * m)
    names = [
        f"({G.element_names[a]}|{H.element_names[b]})" for a in range(n) for b in range(m)
    ]
    return FiniteGroup(table, element_names=names, spec=f"X({G.spec},{H.spec})")


# -- subgroup enumeration -----------------------------------------------------


def all_subgroups(G: FiniteGroup) -> List[Subgroup]:
    """Every subgroup, found by extending known subgroups with one new element.

    Complete: any subgroup arises by adjoining its generators one at a time.
    Each found subgroup B is extended once per class of new elements:
    <B, g> = <B, x> for every x in a double coset B g^k B with k prime to
    the order of g, so all of these are done once g is tried.
    """
    if G._subgroups_cache is not None:
        return list(G._subgroups_cache)
    if G.order > MAX_SUBGROUP_ENUMERATION_ORDER:
        raise InvalidParameterError(
            f"subgroup enumeration capped at order {MAX_SUBGROUP_ENUMERATION_ORDER}"
        )
    t = G.table
    triv = (G.identity,)
    known = {triv}
    # each subgroup with the generators it was first reached from
    frontier = [(triv, ())]
    while frontier:
        base, gens = frontier.pop()
        done = set(base)  # a union of double cosets of base, marked by right cosets
        for g in range(G.order):
            if g in done:
                continue
            new = G.closure((g,), base, gens)
            powers = [g]
            while powers[-1] != G.identity:
                powers.append(t[powers[-1]][g])
            for k, x in enumerate(powers, 1):
                if x not in done and gcd(k, len(powers)) == 1:
                    for y in [t[x][c] for c in base]:
                        if y not in done:
                            done.update([t[b][y] for b in base])
            if new not in known:
                known.add(new)
                frontier.append((new, gens + (g,)))
    ordered = sorted(known, key=lambda els: (len(els), els))
    subs = [Subgroup(G, els) for els in ordered]
    G._subgroups_cache = subs
    return list(subs)


def subgroup_classes(G: FiniteGroup) -> Tuple[List[Subgroup], Dict[Tuple[int, ...], int]]:
    """The conjugacy classes of subgroups: one representative per class, the
    first of its class in canonical subgroup order, and the class index of
    every subgroup, keyed by its element tuple.

    A class is the orbit of its representative under conjugation by the
    generators alone, since conjugation by a product is a composite.
    """
    if G._classes_cache is None:
        reps: List[Subgroup] = []
        class_of: Dict[Tuple[int, ...], int] = {}
        for sub in all_subgroups(G):  # already sorted by (order, elements)
            if sub.elements not in class_of:
                class_of[sub.elements] = len(reps)
                queue = [sub.elements]
                for els in queue:
                    for s in G.generators:
                        conj = tuple(sorted(G.conjugate(s, h) for h in els))
                        if conj not in class_of:
                            class_of[conj] = len(reps)
                            queue.append(conj)
                reps.append(sub)
        G._classes_cache = (reps, class_of)
    reps, class_of = G._classes_cache
    return list(reps), dict(class_of)


def subgroup_conjugacy_reps(G: FiniteGroup) -> List[Subgroup]:
    """One representative per conjugacy class of subgroups (deterministic)."""
    return subgroup_classes(G)[0]


def double_coset_count(K: Subgroup, H: Subgroup) -> int:
    """The number of double cosets K g H, which is the number of K-orbits
    on the left cosets G/H."""
    G = K.parent
    if H.parent is not G:
        raise InvalidParameterError("subgroups belong to different groups")
    t, seen, count = G.table, set(), 0
    for g in range(G.order):
        if g not in seen:
            count += 1
            seen.update(t[t[k][g]][h] for k in K.elements for h in H.elements)
    return count


def prime_factorization(n: int) -> List[Tuple[int, int]]:
    """Pairs (p, e) with n == prod p**e, primes increasing; [] for n < 2."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def sylow(G: FiniteGroup, p: int) -> Subgroup:
    """One p-Sylow subgroup (the first in canonical subgroup order)."""
    if p < 2:
        raise InvalidParameterError(f"{p} is not prime")
    if G.order % p != 0:  # before factoring p: only a divisor of |G| is factored
        raise InvalidParameterError(f"{p} does not divide the group order {G.order}")
    if prime_factorization(p) != [(p, 1)]:
        raise InvalidParameterError(f"{p} is not prime")
    pk = 1
    while G.order % (pk * p) == 0:
        pk *= p
    for sub in all_subgroups(G):
        if sub.order == pk:
            return sub
    raise AssertionError("Sylow subgroup must exist")  # unreachable


def is_z_group(G: FiniteGroup) -> bool:
    """True when every Sylow subgroup (all primes) is cyclic."""
    return all(sylow(G, p).is_cyclic() for p, _ in prime_factorization(G.order))


# -- G-sets -------------------------------------------------------------------


def _by_table(entries: int) -> bool:
    """Whether a table of this many entries is built and certified as a
    whole int64 array rather than entry by entry: the one size rule."""
    return entries >= _ARRAY_CHECK_ENTRIES


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _int64_table(rows: Sequence[Sequence[int]]) -> Optional[np.ndarray]:
    """A new 2-d int64 array of the rows, or None unless they are rows of
    equal length of integers that fit in int64: the per-entry form refuses
    those as it always has."""
    try:
        a = np.asarray(rows)
    except ValueError:  # rows of unequal lengths
        return None
    return a.astype(np.int64) if a.ndim == 2 and a.dtype.kind == "i" else None


def _python_rows(rows: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """The rows of an integer array as lists of Python ints (the entries
    ``operator.index`` gives, fetched at once), other rows as they are."""
    return rows.tolist() if isinstance(rows, np.ndarray) and rows.dtype.kind == "i" else rows


def _identity_and_inverses(table: np.ndarray) -> Tuple[int, np.ndarray]:
    """The closure, identity and inverse checks of ``FiniteGroup`` as scans
    of a 2-d int64 table, with the same messages and first failure."""
    n = len(table)
    if table.shape[1] != n or table.min() < 0 or table.max() >= n:
        raise InvalidParameterError("multiplication table is not closed")
    points = np.arange(n)
    unit = (table == points).all(axis=1) & (table == points[:, None]).all(axis=0)
    if not unit.any():
        raise InvalidParameterError("no identity element in table")
    e = int(unit.argmax())
    hit = table == e
    inverses = hit.argmax(axis=1)
    bad = ~hit[points, inverses] | (table[inverses, points] != e)
    if bad.any():
        raise InvalidParameterError(f"element {int(bad.argmax())} has no inverse")
    return e, inverses


def _check_associativity_by_table(table: np.ndarray, generators: Sequence[int]) -> None:
    """``FiniteGroup._check_associativity`` on a 2-d int64 table: per
    generator s, (a s) b == a (s b) for all a, b as T[T[:, s]] == T[:, T[s]]."""
    for s in generators:
        bad = table[table[:, s]] != table[:, table[s]]
        if bad.any():
            raise InvalidParameterError(f"associativity fails at elements ({int(bad.any(axis=1).argmax())}, {s})")


def _action_by_rows(group: FiniteGroup, action: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """The G-set checks entry by entry: every entry through ``operator.index``,
    a sort per permutation, and rho(g s) = rho(g) rho(s) for every element g
    and generator s, one tuple comparison each.  Returns the permutations."""
    rows = [tuple(map(operator.index, perm)) for perm in _python_rows(action)]
    if len(rows) != group.order:
        raise InvalidParameterError("need one permutation per group element")
    points = list(range(len(rows[0])))
    for perm in rows:
        if sorted(perm) != points:
            raise InvalidParameterError("invalid-gset: action values are not permutations")
    if rows[group.identity] != tuple(points):
        raise InvalidParameterError("invalid-gset: identity does not act trivially")
    if len(points) < 2:  # the identity is the only permutation
        return rows
    for s in group.generators:
        after_s = operator.itemgetter(*rows[s])  # pg -> pg . ps, a tuple
        for g, pg in enumerate(rows):
            if rows[group.table[g][s]] != after_s(pg):
                raise InvalidParameterError(f"invalid-gset: action incompatible at elements ({g}, {s})")
    return rows


def _check_action_table(group: FiniteGroup, table: np.ndarray) -> None:
    """The G-set checks of ``_action_by_rows`` on a 2-d int64 table, by
    whole-table comparisons: one range test and one seen-array scatter for
    the permutations, and per generator s one fancy-index comparison of
    rho(g s) with rho(g) rho(s) over all g.  Same messages, same first failure."""
    if len(table) != group.order:
        raise InvalidParameterError("need one permutation per group element")
    n, size = table.shape
    not_permutations = "invalid-gset: action values are not permutations"
    if size and (table.min() < 0 or table.max() >= size):
        raise InvalidParameterError(not_permutations)
    seen = np.zeros((n, size), dtype=bool)
    seen[np.arange(n)[:, None], table] = True
    if not seen.all():  # some row repeats a point, so misses another
        raise InvalidParameterError(not_permutations)
    if not (table[group.identity] == np.arange(size)).all():
        raise InvalidParameterError("invalid-gset: identity does not act trivially")
    if size < 2:
        return
    products = group.table_array
    for s in group.generators:
        bad = table[products[:, s]] != table[:, table[s]]
        if bad.any():
            raise InvalidParameterError(
                f"invalid-gset: action incompatible at elements ({int(bad.any(axis=1).argmax())}, {s})"
            )


class GSet:
    """A finite left G-set: one point permutation per group element."""

    def __init__(self, group: FiniteGroup, action: Sequence[Sequence[int]]):
        self.group = group
        entries = len(action) * len(action[0]) if len(action) else 0  # as the first row counts them
        table = _int64_table(action) if _by_table(entries) else None
        # the form that checks the action keeps its own image, the tuples or
        # the int64 table; the other is made from it when first read, into an
        # attribute set here (writing __dict__, as cached_property does, makes
        # every later attribute read of the object slower on CPython 3.11)
        self._action: Optional[List[Tuple[int, ...]]] = None
        self._action_array: Optional[np.ndarray] = None
        if table is None:
            self._action = _action_by_rows(group, action)
            self.size = len(self._action[0])
        else:
            _check_action_table(group, table)
            self._action_array = _read_only(table)
            self.size = table.shape[1]

    @property
    def action(self) -> List[Tuple[int, ...]]:
        """The permutation of each element g, action[g], a tuple of points."""
        if self._action is None:
            self._action = list(map(tuple, self._action_array.tolist()))
        return self._action

    @property
    def action_array(self) -> np.ndarray:
        """The action as a read-only (order, size) int64 array: row g is the
        permutation of g."""
        if self._action_array is None:
            self._action_array = _read_only(
                np.array(self._action, dtype=np.int64).reshape(self.group.order, self.size))
        return self._action_array

    def move(self, g: int, vec: Mapping[int, int]) -> Dict[int, int]:
        """The sparse point-indexed vector g . vec, {point: entry}: the
        entry at x moves to g x.  A key outside the points is refused.

        >>> X = regular_gset(cyclic(3))
        >>> X.move(1, {0: 2, 2: -1})
        {1: 2, 0: -1}
        >>> X.move(1, {-1: 1})
        Traceback (most recent call last):
        ...
        glattice.errors.InvalidParameterError: point -1 out of range for a G-set of size 3
        >>> X.move(1, {3: 1})
        Traceback (most recent call last):
        ...
        glattice.errors.InvalidParameterError: point 3 out of range for a G-set of size 3
        """
        for x in (min(vec), max(vec)) if vec else ():  # these two bound every key
            if not 0 <= x < self.size:
                raise InvalidParameterError(f"point {x} out of range for a G-set of size {self.size}")
        perm = self.action[g]
        return {perm[x]: c for x, c in vec.items()}

    def restrict(self, points: Sequence[int]) -> "GSet":
        """The G-set on a stable subset of points, renumbered in increasing order."""
        keep = sorted(set(map(operator.index, points)))
        if any(not 0 <= x < self.size for x in keep):
            raise InvalidParameterError("point out of range")
        pos = {x: i for i, x in enumerate(keep)}
        action = []
        for g, perm in enumerate(self.action):
            moved = tuple(pos.get(perm[x]) for x in keep)
            if None in moved:
                raise InvalidParameterError(f"point subset not stable under element {g}")
            action.append(moved)
        return GSet(self.group, action)

    def restrict_group(self, H: Subgroup) -> "GSet":
        """The same points as a G-set over the subgroup H (see Subgroup.as_group)."""
        if H.parent is not self.group:
            raise InvalidParameterError("subgroup belongs to a different group")
        Hgrp, embed = H.as_group()
        return GSet(Hgrp, [self.action[g] for g in embed])

    def orbits(self, H: Optional[Subgroup] = None) -> List[Tuple[int, ...]]:
        """The orbits under G, or under its subgroup H, ordered by least point."""
        elements = range(self.group.order) if H is None else H.elements
        action = self.action
        seen = [False] * self.size
        out = []
        for x in range(self.size):
            if seen[x]:
                continue
            orbit = sorted({action[g][x] for g in elements})
            for y in orbit:
                seen[y] = True
            out.append(tuple(orbit))
        return out

    def orbit_transversal(self) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """Per orbit: its basepoint (the smallest point) and (p, g_p) for each
        of its points p, with g_p the smallest element moving the basepoint to p."""
        action = self.action
        out = []
        for orbit in self.orbits():
            base = orbit[0]
            reach: Dict[int, int] = {}
            for g in range(self.group.order):
                reach.setdefault(action[g][base], g)
            out.append((base, [(p, reach[p]) for p in orbit]))
        return out

    def stabilizer(self, x: int) -> Subgroup:
        action = self.action
        els = tuple(sorted(g for g in range(self.group.order) if action[g][x] == x))
        return Subgroup(self.group, els)

    def is_free(self) -> bool:
        return all(
            all(perm[x] != x for x in range(self.size))
            for g, perm in enumerate(self.action)
            if g != self.group.identity
        )

    def disjoint_union(self, *others: "GSet") -> "GSet":
        """This G-set followed by the others, each shifted past the points before it."""
        if any(other.group is not self.group for other in others):
            raise InvalidParameterError("G-set union needs a common group")
        parts = (self,) + others
        offsets = list(itertools.accumulate((X.size for X in parts), initial=0))
        action = [tuple(x + off for X, off in zip(parts, offsets) for x in X.action[g])
                  for g in range(self.group.order)]
        return GSet(self.group, action)

    def __repr__(self) -> str:
        return f"GSet(group={self.group.spec}, size={self.size})"


def regular_gset(G: FiniteGroup) -> GSet:
    """G acting on itself by left translation."""
    return GSet(G, G.table_array if _by_table(G.order * G.order) else G.table)


def coset_gset(G: FiniteGroup, H: Subgroup) -> GSet:
    """Left cosets gH under left translation; points sorted by minimal element."""
    if H.parent is not G:
        raise InvalidParameterError("subgroup belongs to a different group")
    reps = left_coset_reps(G, H)
    coset_of = {G.table[rep][h]: i for i, rep in enumerate(reps) for h in H.elements}
    action = [tuple(coset_of[G.table[g][rep]] for rep in reps) for g in range(G.order)]
    return GSet(G, action)


def natural_gset(G: FiniteGroup) -> GSet:
    """The defining point action (symmetric groups only)."""
    if G.point_action is None:
        raise InvalidParameterError(f"group {G.spec} carries no natural point action")
    return GSet(G, G.point_action)


def left_coset_reps(G: FiniteGroup, H: Subgroup) -> List[int]:
    """Minimal-index representative of each left coset gH, sorted."""
    hset = set(H.elements)
    reps = []
    seen = set()
    for g in range(G.order):
        if g in seen:
            continue
        members = {G.table[g][h] for h in hset}
        seen |= members
        reps.append(min(members))
    return sorted(reps)
