"""Finite groups as Cayley tables with 0-based element indices; 0 is the identity.

Everything downstream (operators, cohomology, extensions) works on these
tables, so construction always re-verifies the group axioms exhaustively.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

DEFAULT_GROUP_BOUND = 64


class AxiomError(ValueError):
    """A structural axiom failed; `witness` names the first failing tuple."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetError(RuntimeError):
    """A brute-force search would exceed its configured budget; `stage` names
    what was refused and `size` the size it refused at."""

    def __init__(self, message: str, stage: str | None = None, size: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.size = size


def group_table_witness(table) -> tuple[str, tuple] | None:
    """First group-axiom violation of a Cayley table, or None if it is a group.

    Checks, in order: well-formedness, identity at index 0, existence of
    two-sided inverses, associativity.  Associativity is Light's test
    (Clifford-Preston, vol. I): the b with (ab)c = a(bc) for all a, c are
    closed under the product, so checking b over a generating set, row
    against row, decides it in O(n^2 |gens|).  Only a table that fails it
    gets the full scan, which names the first failing (a, b, c) in index
    order.
    """
    n = len(table)
    if n == 0:
        return ("shape", ())
    for a, row in enumerate(table):
        if len(row) != n:
            return ("shape", (a,))
        for b, v in enumerate(row):
            if not (0 <= v < n):
                return ("range", (a, b))
    for a in range(n):
        if table[0][a] != a:
            return ("identity", (0, a))
        if table[a][0] != a:
            return ("identity", (a, 0))
    for a in range(n):
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(n)):
            return ("inverse", (a,))
    rows = [tuple(row) for row in table]
    # 0 is a two-sided identity, so every element is a product of the
    # generators (closure under right multiplication starts at 0)
    if all(rows[ra[b]] == tuple(map(ra.__getitem__, rows[b]))
           for b in _greedy_generators(rows) for ra in rows):
        return None
    for a, ra in enumerate(rows):
        for b, ab in enumerate(ra):
            rab, rb = rows[ab], rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return ("associativity", (a, b, c))
    raise AssertionError("Light's test failed on an associative table")


class FiniteGroup:
    """A finite group on indices 0..n-1; index 0 is always the identity."""

    def __init__(self, table, labels=None, name: str = "G", check: bool = True):
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.order = len(self.table)
        self.name = name
        self.labels = tuple(str(x) for x in labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.order:
            raise ValueError(f"{name}: {len(self.labels)} labels for order {self.order}")
        if check:
            witness = group_table_witness(self.table)
            if witness is not None:
                kind, w = witness
                raise AxiomError(f"{name}: {kind} axiom fails at {w}", witness=w)
        inv = [0] * self.order
        for a in range(self.order):
            inv[a] = self.table[a].index(0)
        self.inverses = tuple(inv)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, g: int, x: int) -> int:
        """Inner action g x g^-1."""
        return self.table[self.table[g][x]][self.inverses[g]]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    @cached_property
    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)

    def label_index(self, label: str) -> int:
        """Resolve a display label back to its element index."""
        if self.labels is None:
            return int(label)
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"{self.name}: unknown element label {label!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# permutation machinery (cycle labels follow the usual 1-based notation)
# ---------------------------------------------------------------------------


def perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Product of permutations, applying p first: (p*q)(i) = q(p(i)).

    This is the GAP convention, which the catalog follows so that permutation
    fixtures (operator tables on S3, D4, Q8) can be compared literally.
    """
    return tuple(q[p[i]] for i in range(len(p)))


def perm_from_cycles(cycles, degree: int) -> tuple[int, ...]:
    images = list(range(degree))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            images[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(images)


def perm_to_cycles(p: tuple[int, ...]) -> str:
    """Cycle notation with 1-based points; 'e' for the identity."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append("(" + ",".join(str(i + 1) for i in cyc) + ")")
    return "".join(out) if out else "e"


def _moved(p: tuple[int, ...]) -> int:
    return sum(1 for i, v in enumerate(p) if v != i)


def group_from_perms(generators, degree: int, name: str) -> FiniteGroup:
    """Closure of permutation generators, listed by (moved points, cycle string).

    That ordering puts the identity first and reproduces the usual textbook
    listings (e.g. S3 as e,(1,2),(1,3),(2,3),(1,2,3),(1,3,2)).
    """
    identity = tuple(range(degree))
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = perm_mul(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    ordered = sorted(elems, key=lambda p: (_moved(p), perm_to_cycles(p)))
    index = {p: i for i, p in enumerate(ordered)}
    table = [[index[perm_mul(a, b)] for b in ordered] for a in ordered]
    labels = [perm_to_cycles(p) for p in ordered]
    return FiniteGroup(table, labels=labels, name=name)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, labels=[str(a) for a in range(n)], name=f"Z{n}")


def symmetric_group(n: int) -> FiniteGroup:
    gens = [perm_from_cycles([(1, 2)], n)] if n >= 2 else []
    if n >= 3:
        gens.append(perm_from_cycles([tuple(range(1, n + 1))], n))
    return group_from_perms(gens or [tuple(range(max(n, 1)))], max(n, 1), f"S{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon as a subgroup of S_n, order 2n."""
    rot = perm_from_cycles([tuple(range(1, n + 1))], n)
    refl = tuple(n - 1 - i for i in range(n))
    return group_from_perms([rot, refl], n, f"D{n}")


def quaternion_group() -> FiniteGroup:
    """Q8 as the standard order-8 subgroup of S8."""
    a = perm_from_cycles([(1, 2, 3, 4), (5, 6, 7, 8)], 8)
    b = perm_from_cycles([(1, 5, 3, 7), (2, 8, 4, 6)], 8)
    return group_from_perms([a, b], 8, "Q8")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with pair index (a1, a2) -> a1*|g2| + a2."""
    n1, n2 = g1.order, g2.order
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for a2 in range(n2):
            for b1 in range(n1):
                for b2 in range(n2):
                    table[a1 * n2 + a2][b1 * n2 + b2] = (
                        g1.table[a1][b1] * n2 + g2.table[a2][b2]
                    )
    labels = [
        f"({g1.label(a1)},{g2.label(a2)})" for a1 in range(n1) for a2 in range(n2)
    ]
    return FiniteGroup(table, labels=labels, name=f"{g1.name}x{g2.name}")


def make_group(spec, bound: int = DEFAULT_GROUP_BOUND) -> FiniteGroup:
    """Build a catalog group from a descriptor like Z6, S3, D4, Q8, Z2xZ2.

    Also accepts an already-parsed Cayley-table dict (see `group_from_dict`).
    """
    if isinstance(spec, dict):
        g = group_from_dict(spec, bound=bound)
    elif isinstance(spec, FiniteGroup):
        g = spec
    else:
        g = _parse_group_name(str(spec))
    if g.order > bound:
        raise BudgetError(f"group {g.name} has order {g.order} > bound {bound}",
                          stage="group order", size=g.order)
    return g


def _parse_group_name(spec: str) -> FiniteGroup:
    s = spec.strip()
    if "x" in s:
        parts = s.split("x")
        g = _parse_group_name(parts[0])
        for part in parts[1:]:
            g = direct_product(g, _parse_group_name(part))
        return g
    if s in ("Q8",):
        return quaternion_group()
    if len(s) >= 2 and s[0] in "ZC" and s[1:].isdigit():
        n = int(s[1:])
        if n < 1:
            raise ValueError(f"cyclic order must be >= 1: {spec!r}")
        return cyclic_group(n)
    if len(s) >= 2 and s[0] == "S" and s[1:].isdigit():
        n = int(s[1:])
        if not 1 <= n <= 5:
            raise ValueError(f"symmetric groups are cataloged for n <= 5: {spec!r}")
        return symmetric_group(n)
    if len(s) >= 2 and s[0] == "D" and s[1:].isdigit():
        n = int(s[1:])
        if n < 2:
            raise ValueError(f"dihedral D{n} needs n >= 2")
        return dihedral_group(n)
    raise ValueError(f"unknown group descriptor {spec!r}")


# ---------------------------------------------------------------------------
# Cayley-table JSON file format, shared by every module
# ---------------------------------------------------------------------------


def json_element(v, where: str, group: FiniteGroup | None = None) -> int:
    """An element read from JSON: an integer index or, given group, one of its
    labels.  A bool or a float is refused, so true and 2.7 never read as 1 and 2."""
    if group is not None and isinstance(v, str):
        return group.label_index(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{where} is {json.dumps(v)}, not an integer element index")
    return v


def group_to_dict(g: FiniteGroup) -> dict:
    out = {"order": g.order, "identity": 0, "table": [list(row) for row in g.table]}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    return out


def group_from_dict(
    data: dict, name: str = "loaded", bound: int = DEFAULT_GROUP_BOUND
) -> FiniteGroup:
    """Read a Cayley-table dict; an order above `bound` is refused before the
    axiom check runs."""
    if "table" not in data:
        raise ValueError("Cayley-table JSON needs a 'table' field")
    if len(data["table"]) > bound:
        raise BudgetError(f"group {name} has order {len(data['table'])} > bound {bound}",
                          stage="group order", size=len(data["table"]))
    if json_element(data.get("identity", 0), "identity") != 0:
        raise ValueError("Cayley-table JSON must use index 0 as the identity")
    table = [
        [json_element(v, f"Cayley-table entry ({a}, {b})") for b, v in enumerate(row)]
        for a, row in enumerate(data["table"])
    ]
    return FiniteGroup(table, labels=data.get("labels"), name=name)


def load_group(path, bound: int = DEFAULT_GROUP_BOUND) -> FiniteGroup:
    p = Path(path)
    return group_from_dict(json.loads(p.read_text()), name=p.stem, bound=bound)


def save_group(g: FiniteGroup, path) -> None:
    Path(path).write_text(json.dumps(group_to_dict(g), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# set maps between groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupMap:
    """A total set map between groups; laws are checked by predicates, not here."""

    domain: FiniteGroup
    codomain: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.domain.order:
            raise ValueError("map is not total on its domain")
        if self.images and (min(self.images) < 0 or max(self.images) >= self.codomain.order):
            raise ValueError("map image out of range")

    def __call__(self, x: int) -> int:
        return self.images[x]


def identity_map(g: FiniteGroup) -> GroupMap:
    return GroupMap(g, g, tuple(range(g.order)))


def inversion_map(g: FiniteGroup) -> GroupMap:
    return GroupMap(g, g, g.inverses)


def compose(f: GroupMap, g: GroupMap) -> GroupMap:
    """Function composition f o g (apply g first)."""
    if g.codomain.order != f.domain.order:
        raise ValueError("composition domain mismatch")
    return GroupMap(g.domain, f.codomain, tuple(f.images[g.images[x]] for x in g.domain.elements()))


def is_homomorphism(f: GroupMap) -> bool:
    dom, cod, im = f.domain, f.codomain, f.images
    return all(
        im[dom.table[a][b]] == cod.table[im[a]][im[b]]
        for a in dom.elements()
        for b in dom.elements()
    )


def is_anti_homomorphism(f: GroupMap) -> bool:
    dom, cod, im = f.domain, f.codomain, f.images
    return all(
        im[dom.table[a][b]] == cod.table[im[b]][im[a]]
        for a in dom.elements()
        for b in dom.elements()
    )


def is_bijective(f: GroupMap) -> bool:
    return len(set(f.images)) == f.domain.order == f.codomain.order


def action_witness(i: FiniteGroup, maps, h_table=None):
    """First reason the rows of maps are not automorphisms of i, or, given a
    Cayley table of the acting group, not an anti-homomorphism
    (maps[h1 h2] = maps[h2] maps[h1]); None when they are.

    Witnesses: ("bijective", (h,)), ("endomorphism", (h, a, b)) and
    ("anti-homomorphism", (h1, h2)).
    """
    elems = list(i.elements())
    for h, row in enumerate(maps):
        if sorted(row) != elems:
            return ("bijective", (h,))
        for a in elems:
            for b in elems:
                if row[i.table[a][b]] != i.table[row[a]][row[b]]:
                    return ("endomorphism", (h, a, b))
    if h_table is not None:
        for h1, products in enumerate(h_table):
            for h2, h12 in enumerate(products):
                if tuple(maps[h12]) != tuple(maps[h2][maps[h1][y]] for y in elems):
                    return ("anti-homomorphism", (h1, h2))
    return None


def _orbit_classes(keys: list, orbit) -> list[list[int]]:
    """Partition members 0..n-1 (member k has hashable key keys[k]) into orbits.

    orbit(k) yields the keys of k's orbit.  Classes come out ordered by least
    member, each sorted.  Orbits that leave the member set or overlap would
    mean the maps do not act as a group, so both raise.
    """
    index = {key: k for k, key in enumerate(keys)}
    seen: set[int] = set()
    classes = []
    for k in range(len(keys)):
        if k in seen:
            continue
        members = set()
        for key in orbit(k):
            if key not in index:
                raise AssertionError("an orbit leaves the enumerated set")
            members.add(index[key])
        if members & seen:
            raise AssertionError("two orbits overlap")
        seen |= members
        classes.append(sorted(members))
    return classes


def inner_automorphism(g: FiniteGroup, x: int) -> GroupMap:
    """The inner map y -> x y x^-1."""
    return GroupMap(g, g, tuple(g.conj(x, y) for y in g.elements()))


def center(g: FiniteGroup) -> tuple[int, ...]:
    return tuple(
        z
        for z in g.elements()
        if all(g.table[z][a] == g.table[a][z] for a in g.elements())
    )


def is_subgroup(g: FiniteGroup, elems) -> bool:
    s = set(elems)
    if 0 not in s:
        return False
    return all(g.table[a][b] in s for a in s for b in s)


def is_normal(g: FiniteGroup, elems) -> bool:
    s = set(elems)
    return all(g.conj(x, a) in s for x in g.elements() for a in s)


def subgroup_closure(g: FiniteGroup, gens) -> set[int]:
    return _right_closure(g.table, gens)


def _right_closure(table, gens) -> set[int]:
    """The elements reached from 0 by right multiplication by `gens`."""
    out = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for x in gens:
                b = table[a][x]
                if b not in out:
                    out.add(b)
                    nxt.append(b)
        frontier = nxt
    return out


def quotient(g: FiniteGroup, normal) -> tuple[FiniteGroup, GroupMap]:
    """Quotient by a normal subgroup, with the projection map.

    Cosets are indexed by their least element, so the identity coset is 0.
    """
    n = sorted(set(normal))
    if not is_subgroup(g, n):
        raise ValueError("quotient: not a subgroup")
    if not is_normal(g, n):
        raise ValueError("quotient: subgroup is not normal")
    nset = set(n)
    coset_of = {}
    cosets = []
    for a in g.elements():
        if a in coset_of:
            continue
        cs = sorted(g.table[a][x] for x in nset)
        for b in cs:
            coset_of[b] = len(cosets)
        cosets.append(cs)
    order_key = sorted(range(len(cosets)), key=lambda i: cosets[i][0])
    relabel = {old: new for new, old in enumerate(order_key)}
    proj = tuple(relabel[coset_of[a]] for a in g.elements())
    reps = [cosets[order_key[i]][0] for i in range(len(cosets))]
    table = [
        [proj[g.table[reps[i]][reps[j]]] for j in range(len(reps))]
        for i in range(len(reps))
    ]
    labels = [f"[{g.label(r)}]" for r in reps]
    q = FiniteGroup(table, labels=labels, name=f"{g.name}/N")
    return q, GroupMap(g, q, proj)


# ---------------------------------------------------------------------------
# homomorphism / automorphism enumeration by backtracking on generators
# ---------------------------------------------------------------------------


def generating_set(g: FiniteGroup) -> list[int]:
    """Greedy small generating set, deterministic in index order."""
    return _greedy_generators(g.table)


def _greedy_generators(table) -> list[int]:
    """Each element, in index order, that right multiplication by the ones
    before it does not reach from 0."""
    gens: list[int] = []
    closure = {0}
    for x in range(len(table)):
        if x not in closure:
            gens.append(x)
            closure = _right_closure(table, gens)
            if len(closure) == len(table):
                break
    return gens


def _discovery_order(g: FiniteGroup, gens):
    """BFS discovery of every element as parent*gen, for image extension."""
    parent = {0: None}
    order = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for gi, x in enumerate(gens):
                b = g.table[a][x]
                if b not in parent:
                    parent[b] = (a, gi)
                    order.append(b)
                    nxt.append(b)
        frontier = nxt
    return order, parent


def _extend_images(g: FiniteGroup, h: FiniteGroup, gens, gen_images, order, parent):
    images = [-1] * g.order
    images[0] = 0
    for a in order[1:]:
        pa, gi = parent[a]
        images[a] = h.table[images[pa]][gen_images[gi]]
    return images


def enumerate_homomorphisms(
    g: FiniteGroup,
    h: FiniteGroup,
    bound: int = DEFAULT_GROUP_BOUND,
    bijective_only: bool = False,
) -> list[GroupMap]:
    """All homomorphisms g -> h, canonically ordered by image table.

    Backtracks over generator images; a generator of order k may only map to
    an element whose order divides k (equals k when bijective_only).
    """
    if g.order > bound or h.order > bound:
        raise BudgetError(
            f"homomorphism enumeration bound exceeded: {g.order}, {h.order} > {bound}",
            stage="homomorphism enumeration", size=max(g.order, h.order),
        )
    gens = generating_set(g)
    order, parent = _discovery_order(g, gens)
    gen_orders = [g.element_order(x) for x in gens]
    candidates = []
    for k in gen_orders:
        if bijective_only:
            cands = [y for y in h.elements() if h.element_order(y) == k]
        else:
            cands = [y for y in h.elements() if k % h.element_order(y) == 0]
        candidates.append(cands)
    found = []
    for gen_images in itertools.product(*candidates):
        images = _extend_images(g, h, gens, gen_images, order, parent)
        f = GroupMap(g, h, tuple(images))
        if bijective_only and not is_bijective(f):
            continue
        if is_homomorphism(f):
            found.append(f)
    found.sort(key=lambda f: f.images)
    return found


def endomorphisms(g: FiniteGroup, bound: int = DEFAULT_GROUP_BOUND) -> list[GroupMap]:
    """All endomorphisms of g, sorted by image table; an abelian g within the
    bound lists them off its cyclic basis, any other g is searched."""
    basis = cyclic_basis(g) if g.order <= bound else None
    if basis is None:
        return enumerate_homomorphisms(g, g, bound=bound)
    return [GroupMap(g, g, im) for im in sorted(basis_endomorphisms(g, basis))]


def _powers(table, x: int, m: int) -> list[int]:
    """x^0, x^1, ..., x^(m-1)."""
    out = [0]
    for _ in range(m - 1):
        out.append(table[out[-1]][x])
    return out


def cyclic_basis(g: FiniteGroup) -> list[int] | None:
    """Elements b_1..b_k of g with g = <b_1> + ... + <b_k>, a direct sum, or None.

    Greedy over the non-identity elements by decreasing order, least index on
    ties: an element is kept when its cyclic subgroup meets the span so far
    only in e, and the span grows as the product list.  The basis is
    accepted only when that list holds all n elements once, so n is the
    product of the orders and the sum is direct.  None on a non-abelian g,
    and on an abelian one where the greedy choice misses.
    """
    if not g.is_abelian:
        return None
    table = g.table
    orders = [g.element_order(x) for x in g.elements()]
    basis, span = [], [0]
    for x in sorted(range(1, g.order), key=orders.__getitem__, reverse=True):
        if len(span) == g.order:
            break
        powers = _powers(table, x, orders[x])
        if set(powers[1:]).isdisjoint(span):
            basis.append(x)
            span = [table[s][p] for p in powers for s in span]
    return basis if len(set(span)) == len(span) == g.order else None


def basis_endomorphisms(g: FiniteGroup, basis) -> list[tuple[int, ...]]:
    """The image table of every endomorphism of g, given a cyclic basis.

    Each b_i of order m_i maps to each y whose order divides m_i, and every
    such choice extends to exactly one endomorphism, since the sum is direct:
    no law check is needed.  The table is the product list of the basis'
    powers with y_i's powers folded in through the Cayley table, scattered
    back to index order.  Unsorted.
    """
    if not basis:
        return [(0,)]
    table = g.table
    orders = [g.element_order(x) for x in g.elements()]
    span, choices = [0], []
    for b in basis:
        m = orders[b]
        span = [table[s][p] for p in _powers(table, b, m) for s in span]
        choices.append([_powers(table, y, m) for y in g.elements() if m % orders[y] == 0])
    position = [0] * g.order
    for k, x in enumerate(span):
        position[x] = k
    level = choices[0]  # the images of the span of b_1, one per choice of y_1
    for powers in choices[1:]:
        # f(s b^j) = f(s) y^j: each image of the span so far, translated by
        # each power of y, one block after another as in the product list
        rows = [[table[p] for p in q] for q in powers]
        extended = []
        for im in level:
            get = itemgetter(*im)
            extended += [sum(map(get, rq), ()) for rq in rows]
        level = extended
    scatter = itemgetter(*position)
    for k, im in enumerate(level):  # in place, so each unscattered table is freed
        level[k] = scatter(im)
    return level


class AutomorphismGroup:
    """All automorphisms of a group as image tables, sorted (identity first)."""

    def __init__(self, base: FiniteGroup, bound: int = DEFAULT_GROUP_BOUND):
        self.base = base
        self.elements = enumerate_homomorphisms(base, base, bound=bound, bijective_only=True)

    def __len__(self) -> int:
        return len(self.elements)


def automorphisms(g: FiniteGroup, bound: int = DEFAULT_GROUP_BOUND) -> AutomorphismGroup:
    return AutomorphismGroup(g, bound=bound)
