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
    _dfs,
    _generated,
    _greedy_generators,
    _intertwine_witness,
    _law_witness,
    _propagate,
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


def _rb_law(table, inv, im) -> bool:
    """Whether the map im of the elements satisfies the Rota-Baxter law on the
    group `table`, by checking it at the generators of its graph (see the
    notes above `_circle_rows`)."""
    n = len(table)
    if im[0]:
        return False
    gens, span, seen = [], [0], [True] + [False] * (n - 1)
    for x in range(1, n):
        if seen[x]:
            continue
        gens.append(x)
        newest, new = [x], len(span)
        for i, w in enumerate(span):  # the elements found here join the walk
            rw = im[w]
            w_row, rwi, rw_row = table[table[w][rw]], inv[rw], table[rw]
            for t in newest if i < new else gens:
                z = table[w_row[t]][rwi]  # w o t
                if im[z] != rw_row[im[t]]:
                    return False
                if not seen[z]:
                    seen[z] = True
                    span.append(z)
    return True


def _operator(g: FiniteGroup, images) -> RotaBaxterOperator:
    """images (or an operator's images) as a map on g, refused as RotaBaxterOperator refuses it."""
    images = images.images if isinstance(images, RotaBaxterOperator) else images
    return RotaBaxterOperator(g, tuple(images))


def rb_witness(g: FiniteGroup, images) -> tuple[int, int] | None:
    """First (x, y) in index order with R(x o y) != R(x) R(y), the law as a
    homomorphism (G, o_R) -> (G, .); named by `groups._law_witness` with
    every element as a generator, only where `_rb_law` finds that it fails."""
    im = _operator(g, images).images
    if _rb_law(g.table, g.inverses, im):
        return None
    return _law_witness(circle_table(g, im), g.table, im, g.elements())


def is_rb_operator(g: FiniteGroup, images) -> bool:
    return _rb_law(g.table, g.inverses, _operator(g, images).images)


def rb_operator(g: FiniteGroup, images) -> RotaBaxterOperator:
    """Validated constructor; raises with the first violating pair."""
    if (w := rb_witness(g, images)) is not None:
        raise ValueError(f"Rota-Baxter law fails at (x, y) = {w}")
    return _operator(g, images)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------
#
# Depth-first assignment of R over elements in index order with R(e) = e
# pinned (forced by the law at x = y = e: R(e)^2 = R(e)), by `groups._dfs`.
#
# Graph lemma (Guo-Lang-Sheng): R is an operator iff its graph, the set of
# g_x = (x R(x), R(x)), is a subgroup of G x G.  Proof, with x o y = x R(x) y R(x)^-1:
#   g_x g_y = (x R(x) y R(y), R(x) R(y)), and (a, b) -> a b^-1 sends it to x o y
#   as it sends each g_x to x; so g_x g_y is in the graph iff it is g_{x o y},
#   iff R(x o y) = R(x) R(y).  A finite set closed under products is a subgroup.
#
# So a given R is checked at generators, as Light's test checks a table
# (`_rb_law`, O(n |gens|) products against the n^2 pairs of the scan).  Grow
# the greedy generators t of (G, o_R) from e, as `groups._generated` does,
# and check R(w o t) = R(w) R(t), i.e. g_w g_t = g_(w o t), once for every w
# and each t.  Each x is found as w o t from a w found before it, so g_x is
# a product of the g_t, from g_e = (e, e) (so R(e) = e is checked first).
# Each g_t maps the graph into itself, hence so does each product of them,
# that is each g_x: the graph is closed under products, which is the law.
#
# In the search, the fixed elements are the images of the subgroup generated
# by g_g, g in `gens` (the root, then each branch point), and a branch fails
# exactly when that subgroup meets the diagonal nontrivially: two elements,
# one x.  `_circle_rows` builds the rows its domains allow once per search
# (n^3 entries at most), so each circle product is one lookup.
#
# Conjugation R -> c R c^-1 and R -> R~, R~(x) = x^-1 R(x^-1)
# (Guo-Lang-Sheng), map operators to operators and commute.  At a root r the
# move (c, t), c in C(r), is R -> c R~^t c^-1 (t = 1 only if r^2 = e); it
# sends R(r) = v to c r^t v c^-1.  The search runs once per orbit of the
# moves on R(r), and the move from its least value rep to v maps the
# operators with R(r) = rep one-to-one onto those with R(r) = v.


def _circle_rows(table, inv, domains) -> list[list[tuple[int, ...] | None]]:
    right = [tuple(row[ri] for row in table) for ri in inv]  # s -> s r^-1, per r
    getters = [itemgetter(*row) for row in table]
    return [[getters[xr](right[r]) if r in domain else None for r, xr in enumerate(x_row)]
            for x_row, domain in zip(table, domains)]


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
    domains = [range(n)] * n
    rows = _circle_rows(table, inv, domains)
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
    a o (b + c) = (a o b) - a + (a o c), which at a says that
    lambda_a(x) = -a + (a o x) is an endomorphism of (G, +): checked at
    generators (`groups._law_witness`), O(n^2 |gens|).
    """
    w = group_table_witness(brace.add)
    if w is not None:
        return ("add:" + w[0], w[1])
    w = group_table_witness(brace.circ)
    if w is not None:
        return ("circ:" + w[0], w[1])
    add, gens = brace.add, _greedy_generators(brace.add)
    for a, row in enumerate(brace.circ):
        minus_a = add[add[a].index(0)]
        w = _law_witness(add, add, [minus_a[y] for y in row], gens)
        if w is not None:
            return ("compatibility", (a, *w))
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
    return _intertwine_witness(f.images, source.images, target.images)


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
    """A map of skew braces: a homomorphism for both the add and circ tables,
    checked at every b (`groups._law_witness`), as the tables may be
    unvalidated."""
    im = tuple(images)
    return all(_law_witness(s, t, im, range(len(s))) is None
               for s, t in ((source.add, target.add), (source.circ, target.circ)))


# ---------------------------------------------------------------------------
# brace -> operator search
# ---------------------------------------------------------------------------


def find_rb_inducing_brace(
    brace: SkewBrace, bound: int = DEFAULT_ENUM_BOUND
) -> RotaBaxterOperator | None:
    """Search for R on (carrier, add) whose circle table equals brace.circ.

    R(x) is pinned up to the centralizer by R(x) y R(x)^-1 = x^-1 (x o y);
    the remaining constraint is that R be a homomorphism (G, o) -> (G, .),
    which the search `groups._dfs` propagates over these candidate lists.
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
    found: list[tuple[int, ...]] = []
    rows = _circle_rows(add.table, add.inverses, candidates)
    _dfs(rows, add.table, [0] + [-1] * (add.order - 1), [0], [], found, candidates, 1)
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
