"""Rota-Baxter operators of weight 1: verification, exhaustive enumeration,
induced circle groups and skew braces, morphism and subgroup checks.

The defining law is R(x)R(y) = R(x R(x) y R(x)^-1); equivalently R is a
homomorphism from the induced circle group (G, o_R) to (G, .), which is what
the enumeration propagates on.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from operator import getitem, itemgetter
from pathlib import Path

from .groups import (
    BudgetError,
    FiniteGroup,
    GroupMap,
    _generated,
    basis_endomorphisms,
    cyclic_basis,
    group_from_dict,
    group_table_witness,
    group_to_dict,
    inner_automorphism,
    is_bijective,
    is_homomorphism,
    is_subgroup,
    json_element,
    make_group,
)

DEFAULT_ENUM_BOUND = 16
ENUM_WARN_ORDER = 12


@dataclass(frozen=True)
class RotaBaxterOperator:
    """A set map on a group's elements; validity is checked by is_rb_operator."""

    group: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.group.order:
            raise ValueError("operator is not total on the group")
        if min(self.images) < 0 or max(self.images) >= self.group.order:
            raise ValueError("operator image out of range")

    def __call__(self, x: int) -> int:
        return self.images[x]


def trivial_operator(g: FiniteGroup) -> RotaBaxterOperator:
    """R == e, always a Rota-Baxter operator."""
    return RotaBaxterOperator(g, (0,) * g.order)


def inversion_operator(g: FiniteGroup) -> RotaBaxterOperator:
    """R(x) = x^-1, always a Rota-Baxter operator."""
    return RotaBaxterOperator(g, g.inverses)


def identity_operator(g: FiniteGroup) -> RotaBaxterOperator:
    """R = id; a Rota-Baxter operator exactly when g is abelian."""
    return RotaBaxterOperator(g, tuple(g.elements()))


def rb_witness(g: FiniteGroup, images) -> tuple[int, int] | None:
    """First (x, y) violating the Rota-Baxter law, scanning in index order."""
    table, inv = g.table, g.inverses
    im = tuple(images)
    for x in g.elements():
        rx = im[x]
        xrx = table[x][rx]
        rxi = inv[rx]
        for y in g.elements():
            z = table[table[xrx][y]][rxi]
            if table[rx][im[y]] != im[z]:
                return (x, y)
    return None


def is_rb_operator(g: FiniteGroup, images) -> bool:
    images = images.images if isinstance(images, RotaBaxterOperator) else images
    return rb_witness(g, images) is None


def rb_operator(g: FiniteGroup, images) -> RotaBaxterOperator:
    """Validated constructor; raises with the first violating pair."""
    op = RotaBaxterOperator(g, tuple(images))
    w = rb_witness(g, op.images)
    if w is not None:
        raise ValueError(f"Rota-Baxter law fails at (x, y) = {w}")
    return op


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------
#
# Depth-first assignment of R over elements in index order with R(e) = e
# pinned (forced by the law at x = y = e: R(e)^2 = R(e)).
#
# Graph lemma (Guo-Lang-Sheng): R is an operator iff its graph, the set of
# g_x = (x R(x), R(x)), is a subgroup of G x G.  Proof, with x o y = x R(x) y R(x)^-1:
#   g_x g_y = (x R(x) y R(y), R(x) R(y)), and (a, b) -> a b^-1 sends it to x o y
#   as it sends each g_x to x; so g_x g_y is in the graph iff it is g_{x o y},
#   iff R(x o y) = R(x) R(y).  A finite set closed under products is a subgroup.
# So the fixed elements are the images of the subgroup generated by g_g, g in
# `gens` (the root, then each branch point), and a branch fails exactly when
# that subgroup meets the diagonal nontrivially: two elements, one x.
#
# `rows[x][r][y]` is x o y when R(x) = r: built once per search (n^3
# entries), it makes each circle product one lookup.  Invariant: `done` is
# closed under right o-multiplication by `gens`, so it is the subgroup they
# generate.  A new generator x checks w o g for each newly fixed w (the
# `trail`, x first, where most wrong values fail) and g in `gens`, and h o x
# for each h in `done`: O(|new| |gens| + |done|) checks.  Their order changes
# neither the fixed set nor the verdict, so the tree is that of closing every
# pair.  Undoing a branch truncates `done` to its mark and pops its
# generator.  The branch at x tries domains[x] in increasing order; the
# search stops after `limit` tables.
#
# Conjugation R -> c R c^-1 and R -> R~, R~(x) = x^-1 R(x^-1)
# (Guo-Lang-Sheng), map operators to operators and commute.  At a root r the
# move (c, t), c in C(r), is R -> c R~^t c^-1 (t = 1 only if r^2 = e); it
# sends R(r) = v to c r^t v c^-1.  The search runs once per orbit of the
# moves on R(r), and the move from its least value rep to v maps the
# operators with R(r) = rep one-to-one onto those with R(r) = v.


def _circle_rows(table, inv) -> list[list[tuple[int, ...]]]:
    n = len(table)
    right = [tuple(row[inv[r]] for row in table) for r in range(n)]  # s -> s r^-1
    getters = [itemgetter(*row) for row in table]
    return [[getters[xr](right[r]) for r, xr in enumerate(x_row)] for x_row in table]


def _propagate(rows, table, values, trail, done, gens) -> bool:
    i = 0
    while i < len(trail):
        w = trail[i]
        i += 1
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
        if i == 1:  # w is the new generator
            for h in done:
                rh = values[h]
                z = rows[h][rh][w]
                want = table[rh][rw]
                have = values[z]
                if have < 0:
                    values[z] = want
                    trail.append(z)
                elif have != want:
                    return False
    done += trail
    return True


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


def _search_root(g: FiniteGroup):
    """The root r, the least value of each orbit on R(r) and, for each value
    v, its orbit's least value and the move (c, t) to v.  r is an involution
    if g has one, else an element with the largest centraliser; of those,
    one with the fewest orbits (counted once per class), the least on ties.
    """
    table = g.table
    commutes = [[c for c in g.elements() if table[c][x] == table[x][c]] for x in g.elements()]
    most = max(map(len, commutes[1:]))
    candidates = [x for x in g.elements() if x and table[x][x] == 0] or [
        x for x in g.elements() if x and len(commutes[x]) == most]
    best, seen = None, set()
    for r in candidates:
        if r in seen:
            continue
        seen.update(g.conj(c, r) for c in g.elements())
        group = [(c, t) for t in ((0, 1) if table[r][r] == 0 else (0,)) for c in commutes[r]]
        moves: list = [None] * g.order
        for v in g.elements():
            if moves[v] is None:
                for c, t in group:
                    w = g.conj(c, table[r][v] if t else v)
                    if moves[w] is None:
                        moves[w] = (v, c, t)
        reps = [v for v, move in enumerate(moves) if move[0] == v]
        if best is None or len(reps) < len(best[1]):
            best = (r, reps, moves)
    return best


def _close(g: FiniteGroup, root: int, moves, found) -> list[tuple[int, ...]]:
    """`found` and its images under the moves from each R(root) onward.

    Guards the premise: every move conjugates within a group generated by
    automorphisms that fix the root, and uses R~ only if r^2 = e.
    """
    table, inv = g.table, g.inverses
    for c in _generated([c for _, c, _ in moves], g.mul, 0)[0]:
        conj = inner_automorphism(g, c)
        if not (is_bijective(conj) and is_homomorphism(conj) and conj(root) == root):
            raise AssertionError(f"conjugation by {c} does not fix the search root {root}")
    by_rep = {}
    for v, (rep, c, t) in enumerate(moves):
        if t and table[root][root] != 0:
            raise AssertionError(f"R~ moves R({root}) only when {root} is an involution")
        if v != rep:
            # (c R~^t c^-1)(x) = p[j R(j)] if t else p[R(j)], with p the
            # conjugation by c and j = c^-1 x^(-1)^t c
            p = inner_automorphism(g, c).images.__getitem__
            js = [g.conj(inv[c], inv[x] if t else x) for x in g.elements()]
            rows = [table[j] if t else table[0] for j in js]
            by_rep.setdefault(rep, []).append((p, rows, itemgetter(*js)))
    closed = list(found)
    for im in found:
        for p, rows, get in by_rep.get(im[root], ()):
            closed.append(tuple(map(p, map(getitem, rows, get(im)))))
    if len(set(closed)) != len(closed):
        raise AssertionError("the closure repeated an operator")
    return closed


def _enumerate_task(args) -> list[tuple[int, ...]]:
    """Every operator with R(e) = e and R(root) among `values`."""
    table, inv, root, root_values = args
    n = len(table)
    rows = _circle_rows(table, inv)
    domains = [range(n)] * n
    out: list[tuple[int, ...]] = []
    for value in root_values:
        values = [0] + [-1] * (n - 1)
        values[root] = value
        done, gens = [0], [root]
        if _propagate(rows, table, values, [root], done, gens):
            _dfs(rows, table, values, done, gens, out, domains, math.inf)
    return out


def _operator_rows(g: FiniteGroup, bound: int, workers: int) -> list[tuple[int, ...]]:
    """The image tables of `enumerate_rb_operators`, sorted and unwrapped."""
    if g.order > bound:
        raise BudgetError(f"enumeration bound exceeded: |G| = {g.order} > {bound}",
                          stage="enumeration", size=g.order)
    if g.order > ENUM_WARN_ORDER:
        warnings.warn(
            f"enumerating Rota-Baxter operators on a group of order {g.order}; "
            "this may take a while",
            stacklevel=3,
        )
    basis = cyclic_basis(g)
    if basis is not None:
        rows = basis_endomorphisms(g, basis)
        orders = [g.element_order(b) for b in basis]
        want = math.prod(math.gcd(a, b) for a in orders for b in orders)
        if len(rows) != want:
            raise AssertionError(f"listed {len(rows)} endomorphisms, not {want}, off the basis")
    else:
        root, reps, moves = _search_root(g)
        chunks = min(workers, len(reps))
        tasks = [(g.table, g.inverses, root, reps[k::chunks]) for k in range(chunks)]
        if chunks > 1:
            from concurrent.futures import ProcessPoolExecutor  # here only: it loads multiprocessing
            with ProcessPoolExecutor(max_workers=chunks) as pool:
                found = [im for chunk in pool.map(_enumerate_task, tasks) for im in chunk]
        else:
            found = _enumerate_task(tasks[0])
        rows = _close(g, root, moves, found)
    # the greatest table and the last one built: the least is always R = e,
    # which passes on every group
    for im in (max(rows), rows[-1]):
        if (w := rb_witness(g, im)) is not None:
            raise AssertionError(f"an operator found fails the law at (x, y) = {w}")
    rows.sort()
    return rows


def enumerate_rb_operators(
    g: FiniteGroup,
    bound: int = DEFAULT_ENUM_BOUND,
    workers: int = 1,
) -> list[RotaBaxterOperator]:
    """All weight-1 Rota-Baxter operators on g, sorted by image table.

    On an abelian g the law R(x)R(y) = R(x R(x) y R(x)^-1) reads
    R(x)R(y) = R(xy), so the operators are exactly the endomorphisms
    (Guo-Lang-Sheng).  They are listed off a cyclic basis
    g = Z_m1 + ... + Z_mk read from the Cayley table, in this process, and
    their number must be the product of gcd(m_i, m_j) over all i, j.
    Every other g, and an abelian one where no basis is found, is searched:
    once per orbit of the moves on R at a root (see the notes above
    `_circle_rows`), in one strided chunk of orbits per worker, and the
    moves rebuild the rest, so the result is the same for any worker count.
    On either path the greatest table and the last one built are checked
    against the law.
    """
    return [RotaBaxterOperator(g, im) for im in _operator_rows(g, bound, workers)]


# ---------------------------------------------------------------------------
# circle group and skew brace
# ---------------------------------------------------------------------------


def circle_table(g: FiniteGroup, images) -> tuple[tuple[int, ...], ...]:
    table, inv = g.table, g.inverses
    im = tuple(images)
    out = []
    for x in g.elements():
        xrx = table[x][im[x]]
        rxi = inv[im[x]]
        out.append(tuple(table[table[xrx][y]][rxi] for y in g.elements()))
    return tuple(out)


def induced_circle_group(g: FiniteGroup, op: RotaBaxterOperator) -> FiniteGroup:
    """The group (G, o_R) with x o y = x R(x) y R(x)^-1; axioms re-verified."""
    return FiniteGroup(
        circle_table(g, op.images),
        labels=g.labels,
        name=f"({g.name},circ)",
    )


@dataclass(frozen=True)
class SkewBrace:
    """Two Cayley tables on one carrier sharing identity 0; may be unvalidated."""

    order: int
    add: tuple[tuple[int, ...], ...]
    circ: tuple[tuple[int, ...], ...]

    def add_group(self) -> FiniteGroup:
        return FiniteGroup(self.add, name="add")


def skew_brace_witness(brace: SkewBrace):
    """First failing axiom of a skew left brace, or None.

    Checks both group structures, then the compatibility law
    a o (b + c) = (a o b) - a + (a o c).
    """
    w = group_table_witness(brace.add)
    if w is not None:
        return ("add:" + w[0], w[1])
    w = group_table_witness(brace.circ)
    if w is not None:
        return ("circ:" + w[0], w[1])
    add, circ = brace.add, brace.circ
    neg = tuple(row.index(0) for row in add)
    n = brace.order
    for a in range(n):
        for b in range(n):
            ab = circ[a][b]
            for c in range(n):
                lhs = circ[a][add[b][c]]
                rhs = add[add[ab][neg[a]]][circ[a][c]]
                if lhs != rhs:
                    return ("compatibility", (a, b, c))
    return None


def is_skew_brace(brace: SkewBrace) -> bool:
    return skew_brace_witness(brace) is None


def induced_skew_brace(g: FiniteGroup, op: RotaBaxterOperator) -> SkewBrace:
    """The skew brace (G, ., o_R); always valid for a genuine operator."""
    brace = SkewBrace(g.order, g.table, circle_table(g, op.images))
    w = skew_brace_witness(brace)
    if w is not None:
        raise ValueError(f"induced brace fails {w[0]} at {w[1]}; operator invalid?")
    return brace


# ---------------------------------------------------------------------------
# morphisms and substructures
# ---------------------------------------------------------------------------


def rb_morphism_witness(
    f: GroupMap, source: RotaBaxterOperator, target: RotaBaxterOperator
) -> int | None:
    """First element where f R1 != R2 f, or None; f must be a homomorphism."""
    if f.domain.order != source.group.order or f.codomain.order != target.group.order:
        raise ValueError("morphism domain/codomain do not match the operators")
    if not is_homomorphism(f):
        raise ValueError("map is not a group homomorphism")
    for x in f.domain.elements():
        if f.images[source.images[x]] != target.images[f.images[x]]:
            return x
    return None


def is_rb_morphism(
    f: GroupMap, source: RotaBaxterOperator, target: RotaBaxterOperator
) -> bool:
    return rb_morphism_witness(f, source, target) is None


def is_rb_subgroup(g: FiniteGroup, op: RotaBaxterOperator, elems) -> bool:
    """True iff elems is a subgroup with R(H) contained in H."""
    s = set(elems)
    if not is_subgroup(g, s):
        raise ValueError("not a subgroup")
    return all(op.images[x] in s for x in s)


def is_brace_morphism(images, source: SkewBrace, target: SkewBrace) -> bool:
    """A map of skew braces: a homomorphism for both the add and circ tables."""
    im = tuple(images)
    n = source.order
    return all(
        im[source.add[a][b]] == target.add[im[a]][im[b]]
        and im[source.circ[a][b]] == target.circ[im[a]][im[b]]
        for a in range(n)
        for b in range(n)
    )


# ---------------------------------------------------------------------------
# brace -> operator search
# ---------------------------------------------------------------------------


def find_rb_inducing_brace(
    brace: SkewBrace, bound: int = DEFAULT_ENUM_BOUND
) -> RotaBaxterOperator | None:
    """Search for R on (carrier, add) whose circle table equals brace.circ.

    R(x) is pinned up to the centralizer by R(x) y R(x)^-1 = x^-1 (x o y);
    the remaining constraint is that R be a homomorphism (G, o) -> (G, .),
    which the enumeration's search propagates over these candidate lists.
    Values it propagates stay candidates, because lambda_x(y) = x^-1 (x o y)
    is a homomorphism from (G, o), so every table it reaches induces the
    brace.  Returns the lexicographically first solution, or None.
    """
    w = skew_brace_witness(brace)
    if w is not None:
        raise ValueError(f"not a skew brace: {w[0]} at {w[1]}")
    if brace.order > bound:
        raise BudgetError(f"search bound exceeded: order {brace.order} > {bound}",
                          stage="brace search", size=brace.order)
    add = brace.add_group()
    candidates = []
    for x in add.elements():
        target = [add.mul(add.inv(x), brace.circ[x][y]) for y in add.elements()]
        candidates.append(
            [z for z in add.elements() if all(add.conj(z, y) == t for y, t in enumerate(target))]
        )
    values = [0] + [-1] * (add.order - 1)
    found: list[tuple[int, ...]] = []
    rows = _circle_rows(add.table, add.inverses)
    _dfs(rows, add.table, values, [0], [], found, candidates, 1)
    if not found:
        return None
    op = RotaBaxterOperator(add, found[0])
    assert rb_witness(add, op.images) is None
    assert circle_table(add, op.images) == tuple(map(tuple, brace.circ))
    return op


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def operator_to_dict(op: RotaBaxterOperator, group_name: str | None = None) -> dict:
    group_field = group_name if group_name is not None else group_to_dict(op.group)
    return {"group": group_field, "images": list(op.images)}


def operator_from_dict(data: dict, group: FiniteGroup | None = None) -> RotaBaxterOperator:
    """Read an operator; image entries may be indices or element labels."""
    if not isinstance(data, dict) or not isinstance(data.get("images"), list):
        raise ValueError("operator JSON must be an object whose 'images' is a list")
    if group is None:
        spec = data.get("group")
        if spec is None:
            raise ValueError("operator JSON needs a 'group' field or an explicit group")
        group = group_from_dict(spec) if isinstance(spec, dict) else make_group(spec)
    raw = data["images"]
    if len(raw) != group.order:
        raise ValueError(f"operator has {len(raw)} images for order {group.order}")
    images = tuple(json_element(v, f"operator image {k}", group) for k, v in enumerate(raw))
    return RotaBaxterOperator(group, images)


def load_operator(path, group: FiniteGroup | None = None) -> RotaBaxterOperator:
    return operator_from_dict(json.loads(Path(path).read_text()), group=group)
