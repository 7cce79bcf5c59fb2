"""Finite groups as Cayley tables with 0-based element indices; 0 is the identity.

Everything downstream (operators, cohomology, extensions) works on these
tables, so construction always re-verifies the group axioms exhaustively.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
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
        if min(row) < 0 or max(row) >= n:
            for b, v in enumerate(row):
                if not (0 <= v < n):
                    return ("range", (a, b))
    for a in range(n):
        if table[0][a] != a:
            return ("identity", (0, a))
        if table[a][0] != a:
            return ("identity", (a, 0))
    for a, row in enumerate(table):
        if 0 in row and table[row.index(0)][a] == 0:
            continue
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(n)):
            return ("inverse", (a,))
    rows = [tuple(row) for row in table]
    # 0 is a two-sided identity, so the span _generated builds, the right
    # products of the generators from 0, is every element; for each b, the
    # rows of ab against a(bc) over every a at once
    if all(itemgetter(*[ra[b] for ra in rows])(rows) == tuple(map(itemgetter(*rows[b]), rows))
           for b in _greedy_generators(rows)):
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
        self.table = tuple(tuple(map(int, row)) for row in table)
        self.order = len(self.table)
        self.name = name
        self.labels = tuple(str(x) for x in labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.order:
            raise ValueError(f"{name}: {len(self.labels)} labels for order {self.order}")
        repeated = [x for x, k in Counter(self.labels or ()).items() if k > 1]
        if repeated:
            raise ValueError(f"{name}: element label {repeated[0]!r} is repeated")
        if check:
            witness = group_table_witness(self.table)
            if witness is not None:
                kind, w = witness
                raise AxiomError(f"{name}: {kind} axiom fails at {w}", witness=w)
        self.inverses = tuple(row.index(0) for row in self.table)

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
        """Whether the generators commute, so that every element does."""
        gens, table = self._generators, self.table
        return all(table[a][b] == table[b][a] for a in gens for b in gens)

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        return tuple(_greedy_generators(self.table))

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
    gens, elems, parent = _generated(generators, perm_mul, tuple(range(degree)))
    ordered = sorted(elems, key=lambda p: (_moved(p), perm_to_cycles(p)))
    index = {p: i for i, p in enumerate(ordered)}
    # column x of the table is a -> ax; along the discovery tree, x = p t
    # for a generator t, so column x is column p followed by a -> at
    right = [[index[perm_mul(a, t)] for a in ordered] for t in gens]
    columns = {elems[0]: range(len(ordered))}
    for x in elems[1:]:
        p, k = parent[x]
        columns[x] = itemgetter(*columns[p])(right[k])
    table = list(zip(*map(columns.__getitem__, ordered)))
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
    n2 = g2.order
    table = [[x1 * n2 + x2 for x1 in r1 for x2 in r2] for r1 in g1.table for r2 in g2.table]
    labels = [f"({g1.label(a1)},{g2.label(a2)})" for a1 in g1.elements() for a2 in g2.elements()]
    return FiniteGroup(table, labels=labels, name=f"{g1.name}x{g2.name}")


def make_group(spec, bound: int = DEFAULT_GROUP_BOUND) -> FiniteGroup:
    """Build a catalog group from a descriptor like Z6, S3, D4, Q8, Z2xZ2,
    refused above `bound` by the product of its factor orders, before any
    table is built.

    Also accepts an already-parsed Cayley-table dict (see `group_from_dict`).
    """
    if isinstance(spec, dict):
        spec = group_from_dict(spec, bound=bound)
    if isinstance(spec, FiniteGroup):
        factors = [(spec.name, spec.order, lambda: spec)]
    else:
        s = str(spec)
        factors = [_parse_group_name(part) for part in (s.strip().split("x") if "x" in s else [s])]
    order = math.prod(n for _, n, _ in factors)
    if order > bound:
        raise BudgetError(f"group {'x'.join(f[0] for f in factors)} has order {order} > bound "
                          f"{bound}", stage="group order", size=order)
    return reduce(direct_product, (build() for _, _, build in factors))


def _parse_group_name(spec: str):
    """(name, order, build) of one catalog factor, sized without building it."""
    s = spec.strip()
    if s in ("Q8",):
        return "Q8", 8, quaternion_group
    if len(s) >= 2 and s[0] in "ZC" and s[1:].isdigit():
        n = int(s[1:])
        if n < 1:
            raise ValueError(f"cyclic order must be >= 1: {spec!r}")
        return f"Z{n}", n, lambda: cyclic_group(n)
    if len(s) >= 2 and s[0] == "S" and s[1:].isdigit():
        n = int(s[1:])
        if not 1 <= n <= 5:
            raise ValueError(f"symmetric groups are cataloged for n <= 5: {spec!r}")
        return f"S{n}", math.factorial(n), lambda: symmetric_group(n)
    if len(s) >= 2 and s[0] == "D" and s[1:].isdigit():
        n = int(s[1:])
        if n < 2:
            raise ValueError(f"dihedral D{n} needs n >= 2")
        return f"D{n}", 2 * n, lambda: dihedral_group(n)
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


def json_field(data, key: str, what: str):
    """data[key] read from a JSON object, or a ValueError naming the missing field."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{what} has no {key!r} field")
    return data[key]


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
    if not isinstance(data, dict) or "table" not in data:
        raise ValueError("Cayley-table JSON needs a 'table' field")
    if not isinstance(data["table"], list) or not all(isinstance(r, list) for r in data["table"]):
        raise ValueError("Cayley-table JSON 'table' must be a list of rows, each a list")
    if len(data["table"]) > bound:
        raise BudgetError(f"group {name} has order {len(data['table'])} > bound {bound}",
                          stage="group order", size=len(data["table"]))
    if json_element(data.get("identity", 0), "identity") != 0:
        raise ValueError("Cayley-table JSON must use index 0 as the identity")
    table = [
        row if set(map(type, row)) <= {int}
        else [json_element(v, f"Cayley-table entry ({a}, {b})") for b, v in enumerate(row)]
        for a, row in enumerate(data["table"])
    ]
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("Cayley-table JSON 'labels' must be a list")
    return FiniteGroup(table, labels=labels, name=name)


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


def _law_witness(table, target, im, gens) -> tuple[int, int] | None:
    """The first (a, b) in index order with im[ab] != target[im[a]][im[b]], or
    None, for a group `table` generated by gens and an associative product
    table `target` (for any tables when gens is every element).

    The law at generators, proved once here: the b with im[ab] = im[a] im[b]
    for every a are closed under products, as im[a(bc)] = im[(ab)c] =
    im[ab] im[c] = im[a] im[b] im[c] = im[a] im[bc], and every element is a
    product of generators.  So each b in gens, or b = e in the group of
    order 1, which has none, decides the law row against row, in
    O(n |gens|); the n^2 scan only names the witness, also for rb_witness.
    Light's test, `operators._rb_law` and the Wells derivation argue the
    same way in loops of their own.
    """
    if all([im[ab[b]] for ab in table] == [target[x][im[b]] for x in im] for b in gens or (0,)):
        return None
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            if im[ab] != target[im[a]][im[b]]:
                return (a, b)
    return None


def _intertwine_witness(f, a, b) -> int | None:
    """The first x with f[a[x]] != b[f[x]], or None when f a = b f; maps are image tuples."""
    return next((x for x, ax in enumerate(a) if f[ax] != b[f[x]]), None)


def is_homomorphism(f: GroupMap) -> bool:
    return _law_witness(f.domain.table, f.codomain.table, f.images, f.domain._generators) is None


def is_anti_homomorphism(f: GroupMap) -> bool:
    """f(ab) = f(b) f(a) for all a, b: x -> f(x^-1) is a homomorphism."""
    flipped = [f.images[x] for x in f.domain.inverses]
    return _law_witness(f.domain.table, f.codomain.table, flipped, f.domain._generators) is None


def is_bijective(f: GroupMap) -> bool:
    return len(set(f.images)) == f.domain.order == f.codomain.order


def action_witness(i: FiniteGroup, maps, h_table=None):
    """First reason the rows of maps are not automorphisms of i, or, given a
    Cayley table of the acting group, not an anti-homomorphism
    (maps[h1 h2] = maps[h2] maps[h1]); None when they are.

    Witnesses: ("bijective", (h,)), ("endomorphism", (h, a, b)) and
    ("anti-homomorphism", (h1, h2)).  Both laws are checked at generators
    (`_law_witness`), the second as maps[h1 h2] = maps[h1] then maps[h2]
    over the table of "then" on the distinct rows (-1 off them).
    """
    elems = list(i.elements())
    for h, row in enumerate(maps):
        if sorted(row) != elems:
            return ("bijective", (h,))
        if (w := _law_witness(i.table, i.table, row, i._generators)) is not None:
            return ("endomorphism", (h, *w))
    if h_table is not None:
        index = {row: k for k, row in enumerate(dict.fromkeys(map(tuple, maps)))}
        then = [[index.get(tuple(map(q.__getitem__, p)), -1) for q in index] for p in index]
        w = _law_witness(h_table, then, [index[tuple(row)] for row in maps],
                         _greedy_generators(h_table))
        if w is not None:
            return ("anti-homomorphism", w)
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
    """The z that commute with each generator, so with every element."""
    table = g.table
    return tuple(z for z in g.elements() if all(table[z][a] == table[a][z] for a in g._generators))


def _generated(members, mul, one):
    """(gens, span, parent) for the subgroup that members generate under mul.

    gens: each member, in order, outside the span of the ones before it.
    span: that subgroup in discovery order from one, grown incrementally and
    kept closed under right multiplication by the generators: a new
    generator multiplies every element found so far, and each new element
    multiplies every generator.  So it holds only right products of the
    generators from one, which is what Light's test needs on a table that
    may not be associative.  parent: x -> (p, k) with x = mul(p, gens[k])
    and p found before x; parent[one] is None.
    """
    gens, span, parent = [], [one], {one: None}
    for x in members:
        if x in parent:
            continue
        gens.append(x)
        k, new, i = len(gens) - 1, len(span), 0
        while i < len(span):  # by index: the elements found here join the walk
            a = span[i]
            for j in range(k if i < new else 0, k + 1):
                b = mul(a, gens[j])
                if b not in parent:
                    parent[b] = (a, j)
                    span.append(b)
            i += 1
    return gens, span, parent


def is_subgroup(g: FiniteGroup, elems) -> bool:
    """True iff elems is the span of its own greedy generators."""
    s = set(elems)
    return set(_generated(s, g.mul, 0)[1]) == s


def is_normal(g: FiniteGroup, elems) -> bool:
    s = set(elems)
    return all(g.conj(x, a) in s for x in g.elements() for a in s)


def subgroup_closure(g: FiniteGroup, gens) -> set[int]:
    return set(_generated(gens, g.mul, 0)[1])


def quotient(g: FiniteGroup, normal) -> tuple[FiniteGroup, GroupMap]:
    """Quotient by a normal subgroup, with the projection map.

    Cosets are indexed by their least element, so the identity coset is 0.
    """
    n = sorted(set(normal))
    if not is_subgroup(g, n):
        raise ValueError("quotient: not a subgroup")
    if not is_normal(g, n):
        raise ValueError("quotient: subgroup is not normal")
    coset_of, reps = {}, []
    for a in g.elements():  # the first element met of each coset is its least
        if a not in coset_of:
            coset_of.update(dict.fromkeys((g.table[a][x] for x in n), len(reps)))
            reps.append(a)
    proj = tuple(coset_of[a] for a in g.elements())
    table = [[proj[g.table[r][s]] for s in reps] for r in reps]
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
    """Each element, in index order, outside the span of the ones before it."""
    return _generated(range(len(table)), lambda a, b: table[a][b], 0)[0]


# The one assign-and-propagate search, for operators, brace lifts and
# homomorphisms.  values[x] is -1 until assigned, values[e] = e, and the law
# is values[x * y] = values[x] values[y] in `table`, `rows[x][v][y]` being
# x * y when values[x] = v: x o y when R(x) = v for operators
# (`operators._circle_rows`), xy in g for every v for homomorphisms.  Either
# law holds iff a graph is a subgroup of a group P ({(x, f(x))} in g x h, or
# the g_x of the notes above `operators._circle_rows`), x * y lying under the
# product of the points of x and y.  `done` holds the subgroup D that the
# points of the branch elements `gens` generate; a new generator x walks its
# `trail`, x first (where most wrong values fail), multiplying each newly
# fixed w by each g in `gens`: O(|new| |gens|) checks.  Undoing a branch
# truncates `done` to its mark and pops its generator.  The branch at x, the
# least unassigned element, tries domains[x] in increasing order, so tables
# come out sorted; the search stops after `limit` tables.  Lagrange: D lies
# in the graph of any extension, a subgroup of order |G|, so |done| divides
# |G|, or the branch fails (never for homomorphisms: there `done` is a subgroup).
# rows[w] is read only at values[w], so rows outside domains[w] may be None
# if propagation keeps values in domains: the enumeration's are full, a brace
# lift's closed (its docstring); the census (`extensions.h2_alpha`) assigns its
# kernel first, in index order, and R_I, R_H are operators: products stay in fibres.
# A given map's law is checked at generators by `_law_witness`, whose
# docstring proves it, behind is_homomorphism, is_anti_homomorphism,
# action_witness, rb_module_witness, skew_brace_witness, is_brace_morphism
# and rb_witness (every element a generator of the circle table).
#
# The walk never multiplies D by the point p of x, yet fails iff <D, p> has
# two points over one element, and else fixes <D, p>.  It multiplies only
# points of <D, p>, covers each left coset yD != D it meets (the old gens
# generate D) and from it reaches ydpD for each d in D: it walks from pD,
# avoiding D, along the edges yD -> ydpD of a digraph on which left
# multiplication acts transitively, strongly connected as D and p generate
# <D, p>, and loop-free as p is not in D.  Once it reaches D's out-neighbours
# dpD its points are closed under every generator.  They are pD alone, where
# it starts, or k >= 2 vertices, and then it reaches them all, as the digraph
# without D stays strongly connected.  If not, take an atom: a least set F,
# of size m, with one out-neighbour a(F) outside it and F + a(F) not all n
# vertices (a sink component without D is one); m >= 2 as k >= 2.  If atoms
# F != F' meet, F & F' has its out-neighbours outside it among a(F), a(F');
# one would make it a smaller such set, none is impossible, so a(F) is in F',
# a(F') in F, F | F' is closed, and n <= 2m - 1.  Automorphisms permute the
# atoms, so a vertex is a(F) for c >= 1 of them and lies in cm >= 2: two
# meet, n <= 2m - 1.  An atom F with a(F) = D is left only through D, so an
# out-neighbour w of D is outside F + D; an atom F' with a(F') = w meets F,
# as 2m > n, so w is in F, a contradiction.


def _propagate(rows, table, values, trail, done, gens) -> bool:
    for w in trail:  # the elements fixed here join the walk
        rw = values[w]
        w_row = rows[w][rw]
        rw_row = table[rw]
        for g in gens:
            z = w_row[g]
            want = rw_row[values[g]]
            have = values[z]
            if have < 0:
                values[z] = want
                trail.append(z)
            elif have != want:
                return False
    done += trail
    return len(values) % len(done) == 0


def _dfs(rows, table, values, done, gens, out, domains, limit) -> None:
    if -1 not in values:
        out.append(tuple(values))
        return
    x = values.index(-1)
    mark = len(done)
    gens.append(x)
    for v in domains[x]:
        trail = [x]
        values[x] = v
        if _propagate(rows, table, values, trail, done, gens):
            _dfs(rows, table, values, done, gens, out, domains, limit)
        for t in trail:
            values[t] = -1
        del done[mark:]
        if len(out) >= limit:
            break
    gens.pop()


def _homomorphism_bound(g: FiniteGroup, h: FiniteGroup, bound: int) -> None:
    if g.order > bound or h.order > bound:
        raise BudgetError(
            f"homomorphism enumeration bound exceeded: {g.order}, {h.order} > {bound}",
            stage="homomorphism enumeration", size=max(g.order, h.order),
        )


def enumerate_homomorphisms(
    g: FiniteGroup,
    h: FiniteGroup,
    bound: int = DEFAULT_GROUP_BOUND,
    bijective_only: bool = False,
) -> list[GroupMap]:
    """All homomorphisms g -> h, canonically ordered by image table, by the
    search above `_propagate`: x maps only to the elements whose order divides
    ord(x) (equals it when bijective_only, which keeps the bijections).  The
    greatest table found and the last one are checked against the law."""
    _homomorphism_bound(g, h, bound)
    h_orders = [h.element_order(y) for y in h.elements()]
    domains = [[y for y, m in enumerate(h_orders) if (m == k if bijective_only else k % m == 0)]
               for k in map(g.element_order, g.elements())]
    found: list[tuple[int, ...]] = []
    rows = [[row] * h.order for row in g.table]
    _dfs(rows, h.table, [0] + [-1] * (g.order - 1), [0], [], found, domains, math.inf)
    if bijective_only:
        found = [im for im in found if len(set(im)) == g.order == h.order]
    for im in (max(found), found[-1]) if found else ():
        if not is_homomorphism(GroupMap(g, h, im)):
            raise AssertionError(f"a homomorphism found fails the law: {im}")
    found.sort()
    return [GroupMap(g, h, im) for im in found]


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
    back to index order.  Unsorted; their number must be the product of
    gcd(m_i, m_j) over all i, j.
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
    want = math.prod(math.gcd(orders[a], orders[b]) for a in basis for b in basis)
    if len(level) != want:
        raise AssertionError(f"listed {len(level)} endomorphisms, not {want}, off the basis")
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
