import inspect
import itertools
import math
import random
from pathlib import Path

import pytest

from rbgroups import groups
from rbgroups.groups import (
    DEFAULT_GROUP_BOUND,
    BudgetError,
    FiniteGroup,
    GroupMap,
    _generated,
    group_table_witness,
    _moved,
    automorphisms,
    compose,
    endomorphisms,
    is_bijective,
    make_group,
    perm_mul,
    perm_to_cycles,
)
from rbgroups.cohomology import (
    DEFAULT_COHOMOLOGY_BUDGET,
    Cochain,
    CocyclePair,
    H2Result,
    RBModule,
    _apply,
    _compile,
    _coset_generators,
    _d1_map,
    _d2_map,
    _pair,
    d1_rbe,
    delta,
    enumerate_cochains,
    h2_rbe,
    is_two_cocycle,
    z1_rbe,
)
from rbgroups.extensions import (
    DEFAULT_THETA_BUDGET,
    DEFAULT_TRIPLET_BUDGET,
    Triplet,
    TripletCensus,
    _candidate_operator,
    _candidate_table,
    _mu_witness,
    _orbit_classes,
    _schreier_cocycle,
    _schreier_cosets,
    _shift_triplet,
    _tau_choices,
    _thetas,
    _times,
    center_module,
    verify_triplet,
)
from rbgroups.operators import (
    DEFAULT_ENUM_BOUND,
    RotaBaxterOperator,
    _circle_rows,
    enumerate_rb_operators,
    is_rb_operator,
)
from rbgroups.wells import (
    act_on_pair,
    aut_HI,
    c_mu,
    check_wells_exactness,
    gamma_parts,
    rb_automorphisms,
    wells_map,
    zeta,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def s3():
    return make_group("S3")


@pytest.fixture(scope="session")
def d4():
    return make_group("D4")


@pytest.fixture(scope="session")
def q8():
    return make_group("Q8")


def full_scan_witness(table):
    """Oracle: group_table_witness with associativity by scanning every triple."""
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
    for a in range(n):
        ra = table[a]
        for b in range(n):
            ab = ra[b]
            rab = table[ab]
            rb = table[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return ("associativity", (a, b, c))
    return None


# ---------------------------------------------------------------------------
# subgroup-growth oracles: the walks groups._generated replaced
# ---------------------------------------------------------------------------


def right_closure(gens, mul, one) -> set:
    """Oracle for the span of groups._generated: the elements reached from
    one by right multiplication by gens, breadth first."""
    out, frontier = {one}, [one]
    while frontier:
        nxt = []
        for a in frontier:
            for x in gens:
                b = mul(a, x)
                if b not in out:
                    out.add(b)
                    nxt.append(b)
        frontier = nxt
    return out


def recomputed_greedy_generators(members, mul, one) -> list:
    """Oracle for the generators of groups._generated: each member, in order,
    outside the right closure of the ones before it, recomputed from scratch
    after every new generator."""
    gens, closure = [], {one}
    for x in members:
        if x not in closure:
            gens.append(x)
            closure = right_closure(gens, mul, one)
    return gens


def bfs_discovery_order(gens, mul, one):
    """Oracle for the discovery tree of groups._generated: breadth-first
    discovery of every element as parent * generator, with its parent map."""
    parent, order, frontier = {one: None}, [one], [one]
    while frontier:
        nxt = []
        for a in frontier:
            for k, x in enumerate(gens):
                b = mul(a, x)
                if b not in parent:
                    parent[b] = (a, k)
                    order.append(b)
                    nxt.append(b)
        frontier = nxt
    return order, parent


def pairwise_perm_group(generators, degree: int, name: str):
    """Oracle: `group_from_perms` with every table entry its own permutation
    product, n^2 of them."""
    _, elems, _ = _generated(generators, perm_mul, tuple(range(degree)))
    ordered = sorted(elems, key=lambda p: (_moved(p), perm_to_cycles(p)))
    index = {p: i for i, p in enumerate(ordered)}
    table = [[index[perm_mul(a, b)] for b in ordered] for a in ordered]
    labels = [perm_to_cycles(p) for p in ordered]
    return FiniteGroup(table, labels=labels, name=name)


def compose_pairs(c1, c2):
    """(phi1, psi1)(phi2, psi2) componentwise, as GroupMaps: the product of
    C_mu that wells._compose computes on keys."""
    return (compose(c1[0], c2[0]), compose(c1[1], c2[1]))


def pair_key_mul(a, b):
    """The key (phi images, psi images) of compose_pairs on two keys."""
    return tuple(a[0][x] for x in b[0]), tuple(a[1][x] for x in b[1])


def walked_pair_generators(cmu) -> list:
    """Oracle for wells._pair_generators: the greedy generators of C_mu,
    each span walked from the identity over the keys of compose_pairs."""
    phi, psi = cmu[0]
    one = (tuple(range(len(phi.images))), tuple(range(len(psi.images))))
    by_key = {(c[0].images, c[1].images): c for c in cmu}
    return [by_key[k] for k in recomputed_greedy_generators(by_key, pair_key_mul, one)]


def check_generated(members, mul, one):
    """_generated(members, mul, one) against the oracles: the same generators
    and span, and a discovery tree whose parents come first."""
    gens, span, parent = _generated(members, mul, one)
    assert gens == recomputed_greedy_generators(members, mul, one)
    want = right_closure(gens, mul, one)
    assert set(span) == want == set(bfs_discovery_order(gens, mul, one)[0])
    assert span[0] == one and parent[one] is None
    assert len(span) == len(want) == len(parent)
    position = {x: k for k, x in enumerate(span)}
    for x in span[1:]:
        p, k = parent[x]
        assert x == mul(p, gens[k]) and position[p] < position[x]
    return gens, span


def scan_action_witness(i, maps, h_table=None):
    """Oracle for groups.action_witness: the endomorphism law at every pair."""
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


def scan_is_homomorphism(f: GroupMap) -> bool:
    """Oracle for groups.is_homomorphism: the law at every pair."""
    dom, cod, im = f.domain, f.codomain, f.images
    return all(
        im[dom.table[a][b]] == cod.table[im[a]][im[b]]
        for a in dom.elements()
        for b in dom.elements()
    )


def scan_is_anti_homomorphism(f: GroupMap) -> bool:
    """Oracle for groups.is_anti_homomorphism: the law at every pair."""
    dom, cod, im = f.domain, f.codomain, f.images
    return all(
        im[dom.table[a][b]] == cod.table[im[b]][im[a]]
        for a in dom.elements()
        for b in dom.elements()
    )


def scan_is_brace_morphism(images, source, target) -> bool:
    """Oracle for operators.is_brace_morphism: both laws at every pair."""
    im = tuple(images)
    n = source.order
    return all(
        im[source.add[a][b]] == target.add[im[a]][im[b]]
        and im[source.circ[a][b]] == target.circ[im[a]][im[b]]
        for a in range(n)
        for b in range(n)
    )


def scan_skew_brace_witness(brace):
    """Oracle for operators.skew_brace_witness: compatibility at every triple."""
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


def scan_rb_module_witness(hop, igroup, ri, action):
    """Oracle for cohomology.rb_module_witness: R_I and the action checked at
    every pair (`scan_action_witness`)."""
    h = hop.group
    if not igroup.is_abelian:
        return ("abelian", ())
    ri = tuple(ri)
    for a in igroup.elements():
        for b in igroup.elements():
            if ri[igroup.table[a][b]] != igroup.table[ri[a]][ri[b]]:
                return ("ri-endomorphism", (a, b))
    action = tuple(tuple(row) for row in action)
    if len(action) != h.order:
        return ("action-shape", ())
    w = scan_action_witness(igroup, action, h.table)
    if w is not None:
        return ("action-" + w[0], w[1])
    rh = hop.images
    for hh in h.elements():
        mu_rh = action[rh[hh]]
        mu_hrh = action[h.table[hh][rh[hh]]]
        for z in igroup.elements():
            lhs = mu_rh[ri[z]]
            inner = igroup.table[mu_hrh[igroup.table[z][ri[z]]]][
                igroup.inverses[mu_rh[ri[z]]]
            ]
            if lhs != ri[inner]:
                return ("module-condition", (hh, z))
    return None


def scan_intertwine(f, a, b):
    """Oracle for groups._intertwine_witness: the loop each routed check wrote
    by hand, the first x with f[a[x]] != b[f[x]], or None."""
    for x in range(len(a)):
        if f[a[x]] != b[f[x]]:
            return x
    return None


def block_propagate(rows, table, values, trail, done, gens) -> bool:
    """Oracle for `groups._propagate`: besides the trail's walk, the new
    generator w is multiplied on the left by every element of `done`."""
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
    return len(values) % len(done) == 0


def product_homomorphisms(
    g: FiniteGroup,
    h: FiniteGroup,
    bound: int = DEFAULT_GROUP_BOUND,
    bijective_only: bool = False,
) -> list[GroupMap]:
    """Oracle for `groups.enumerate_homomorphisms`: the full product of
    generator images, each candidate checked against the law.

    Backtracks over generator images; a generator of order k may only map to
    an element whose order divides k (equals k when bijective_only).
    """
    if g.order > bound or h.order > bound:
        raise BudgetError(
            f"homomorphism enumeration bound exceeded: {g.order}, {h.order} > {bound}",
            stage="homomorphism enumeration", size=max(g.order, h.order),
        )
    gens, span, parent = _generated(g.elements(), g.mul, 0)
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
        images = [0] * g.order  # extended along the discovery tree
        for a in span[1:]:
            p, k = parent[a]
            images[a] = h.table[images[p]][gen_images[k]]
        f = GroupMap(g, h, tuple(images))
        if bijective_only and not is_bijective(f):
            continue
        if scan_is_homomorphism(f):
            found.append(f)
    found.sort(key=lambda f: f.images)
    return found


def scan_rb_witness(g, images):
    """Oracle: the first (x, y) violating the Rota-Baxter law, by scanning
    every pair in index order."""
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


def brute_force_operators(g):
    """Oracle: scan every map with R(e) = e against the law directly."""
    found = []
    for rest in itertools.product(range(g.order), repeat=g.order - 1):
        im = (0,) + rest
        if scan_rb_witness(g, im) is None:
            found.append(im)
    return sorted(found)


def unpruned_propagate(rows, table, values, trail, done, gens) -> bool:
    """`groups._propagate` without the Lagrange prune: a branch fails only
    when the law does."""
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


def _pairwise_propagate(rows, table, values, trail, done) -> bool:
    i = 0
    while i < len(trail):
        w = trail[i]
        i += 1
        done.append(w)
        rw = values[w]
        w_row = rows[w][rw]
        rw_row = table[rw]
        for y in done:
            ry = values[y]
            z = w_row[y]
            want = rw_row[ry]
            have = values[z]
            if have < 0:
                values[z] = want
                trail.append(z)
            elif have != want:
                return False
            z = rows[y][ry][w]
            want = table[ry][rw]
            have = values[z]
            if have < 0:
                values[z] = want
                trail.append(z)
            elif have != want:
                return False
    return True


def _pairwise_dfs(rows, table, values, done, out, domains, limit) -> None:
    if -1 not in values:
        out.append(tuple(values))
        return
    x = values.index(-1)
    mark = len(done)
    for v in domains[x]:
        trail = [x]
        values[x] = v
        if _pairwise_propagate(rows, table, values, trail, done):
            _pairwise_dfs(rows, table, values, done, out, domains, limit)
        for t in trail:
            values[t] = -1
        del done[mark:]
        if len(out) >= limit:
            return


def pairwise_task(args):
    """Oracle for `operators._enumerate_task`: the same branches, with each
    new element checked against every known one (both orders) instead of
    only against the branch generators."""
    table, inv, root, root_values = args
    n = len(table)
    domains = [range(n)] * n
    rows = _circle_rows(table, inv, domains)
    out = []
    for value in root_values:
        values = [0] + [-1] * (n - 1)
        values[root] = value
        done = []
        if _pairwise_propagate(rows, table, values, [0, root], done):
            _pairwise_dfs(rows, table, values, done, out, domains, math.inf)
    return out


def basis_listing_short_by_one():
    """A mutant of `groups.basis_endomorphisms` whose listing drops its last
    table before the rest of the function runs, count check included."""
    source = inspect.getsource(groups.basis_endomorphisms)
    marker = "    scatter = itemgetter(*position)\n"
    assert source.count(marker) == 1
    namespace: dict = {}
    exec(source.replace(marker, "    level.pop()\n" + marker), vars(groups), namespace)
    return namespace["basis_endomorphisms"]


def plain_operators(g):
    """Oracle: the pairwise operator search without the root-orbit symmetry,
    one branch for every value of R at element 1."""
    n = g.order
    if n == 1:
        return [(0,)]
    return sorted(pairwise_task((g.table, g.inverses, 1, range(n))))


def _fixpoint_propagate(table, inv, values, trail) -> bool:
    n = len(values)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            rx = values[x]
            if rx < 0:
                continue
            xrx = table[x][rx]
            rxi = inv[rx]
            row = table[rx]
            for y in range(n):
                ry = values[y]
                if ry < 0:
                    continue
                z = table[table[xrx][y]][rxi]
                want = row[ry]
                have = values[z]
                if have < 0:
                    values[z] = want
                    trail.append(z)
                    changed = True
                elif have != want:
                    return False
    return True


def _fixpoint_dfs(table, inv, values, out) -> None:
    n = len(values)
    x = next((i for i in range(n) if values[i] < 0), None)
    if x is None:
        out.append(tuple(values))
        return
    for v in range(n):
        trail = [x]
        values[x] = v
        if _fixpoint_propagate(table, inv, values, trail):
            _fixpoint_dfs(table, inv, values, out)
        for t in trail:
            values[t] = -1


def fixpoint_operators(g):
    """Oracle: the operator search that rescans every pair (x, y) after each
    assignment until nothing changes, instead of following a worklist."""
    values = [-1] * g.order
    values[0] = 0
    out = []
    if _fixpoint_propagate(g.table, g.inverses, values, []):
        _fixpoint_dfs(g.table, g.inverses, values, out)
    return sorted(out)


def anti_actions(h, igroup):
    """All anti-homomorphic actions H -> Aut(I) (identity pinned at e)."""
    aut = automorphisms(igroup)
    k = len(aut.elements)
    out = []
    for choice in itertools.product(range(k), repeat=h.order - 1):
        action = [tuple(igroup.elements())] + [aut.elements[c].images for c in choice]
        ok = True
        for h1 in h.elements():
            for h2 in h.elements():
                comp = tuple(action[h2][action[h1][y]] for y in igroup.elements())
                if tuple(action[h.table[h1][h2]]) != comp:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(map(tuple, action)))
    return out


# the (H, I) carriers whose modules the cohomology oracles cover exhaustively
ORACLE_PAIRS = [
    ("Z2", "Z2"), ("Z2", "Z4"), ("Z3", "Z2"), ("Z2", "Z3"),
    ("Z4", "Z2"), ("Z3", "Z3"), ("Z2xZ2", "Z2"), ("Z2", "Z2xZ2"), ("Z2", "Z6"),
]


def all_modules(h_name, i_name, require_commuting=False):
    """Every valid RBModule on the given carriers (abelian H, so operators =
    endomorphisms); optionally only those with mu_h commuting with R_I."""
    h, igroup = make_group(h_name), make_group(i_name)
    mods = []
    for hop in enumerate_rb_operators(h):
        for ri in [f.images for f in endomorphisms(igroup)]:
            for act in anti_actions(h, igroup):
                if scan_rb_module_witness(hop, igroup, ri, act) is not None:
                    continue
                m = RBModule(hop, igroup, ri, act)
                if require_commuting and not m.mu_commutes_with_ri():
                    continue
                mods.append(m)
    return mods


def relabelled(g, seed):
    """g under a seeded permutation p of its indices with p[0] = 0."""
    rest = list(range(1, g.order))
    random.Random(seed).shuffle(rest)
    p = (0, *rest)
    table = [[0] * g.order for _ in range(g.order)]
    for a in g.elements():
        for b in g.elements():
            table[p[a]][p[b]] = p[g.table[a][b]]
    return FiniteGroup(table, name=f"{g.name}@{seed}")


# ---------------------------------------------------------------------------
# cochain-map oracles: each output value by its formula, read through
# Cochain.__call__, with the products and actions as functions
# ---------------------------------------------------------------------------


def closure_coboundary(f, prod, act):
    """Oracle for cohomology._coboundary: the normalized coboundary of the
    group with product prod, acting through act(h, y), with the
    bar-resolution sign (-1)^(n+1) on the action term."""
    m, n = f.module, f.arity

    def value(*args):
        total = f(args[1:])
        for k in range(1, n + 1):
            merged = args[: k - 1] + (prod(args[k - 1], args[k]),) + args[k + 1 :]
            term = f(merged)
            if k % 2 == 1:
                term = m.ineg(term)
            total = m.iadd(total, term)
        last = act(args[n], f(args[:n]))
        if n % 2 == 0:
            last = m.ineg(last)
        return m.iadd(total, last)

    return Cochain.from_callable(m, n + 1, value)


def closure_delta(f):
    m = f.module
    return closure_coboundary(f, lambda a, b: m.H.table[a][b], lambda h, y: m.action[h][y])


def closure_partial(f, sigma=None):
    """partial, or partial_circ with the circle action sigma."""
    m = f.module
    circ = m.circle.table
    if sigma is None:
        return closure_coboundary(f, lambda a, b: circ[a][b], lambda h, y: m.action[m.rh[h]][y])
    return closure_coboundary(f, lambda a, b: circ[a][b], lambda h, y: sigma[h][y])


def closure_phi1(theta):
    """Oracle for cohomology.phi1."""
    m = theta.module
    return Cochain.from_callable(
        m, 1, lambda h: m.isub(m.ri[m.act(m.rh[h], theta((h,)))], theta((m.rh[h],))))


def closure_phi2(f):
    """Oracle for cohomology.phi2: R_I(mu_{R_H(h1)R_H(h2)}(four-term sum))
    - f(R_H(h1), R_H(h2))."""
    m = f.module
    h, i = m.H, m.I
    rh = m.rh

    def value(h1, h2):
        r1, r2 = rh[h1], rh[h2]
        r1i = h.inverses[r1]
        a = f((h.table[h1][r1], h.table[h2][r1i]))
        b = m.act(h.table[h2][r1i], f((h1, r1)))
        c = f((h2, r1i))
        d = f((r1, r1i))
        total = i.table[i.table[a][b]][i.table[c][i.inverses[d]]]
        twisted = m.ri[m.act(h.table[r1][r2], total)]
        return m.isub(twisted, f((r1, r2)))

    return Cochain.from_callable(m, 2, value)


def closure_d2_rbe(pair):
    """Oracle for cohomology.d2_rbe, built on the closure oracles above."""
    tau, g = pair.tau, pair.g
    m = tau.module
    h = m.H
    pg = closure_partial(g)
    p2 = closure_phi2(tau)

    def beta(h1, h2):
        gh1 = g((h1,))
        mid = m.ri[
            m.isub(m.act(h.table[h2][m.rh[h2]], gh1), m.act(m.rh[h2], gh1))
        ]
        return m.isub(m.isub(pg((h1, h2)), mid), p2((h1, h2)))

    return (closure_delta(tau), Cochain.from_callable(m, 2, beta))


# ---------------------------------------------------------------------------
# cohomology oracles: Z1, Z2, B2 and H2 by scanning Cochain objects
# ---------------------------------------------------------------------------


def element_probe_compile(module, width, fn):
    """Oracle for cohomology._compile: probe fn at every element of I in
    every coordinate, with no use of additivity beyond reading the rows."""
    columns = [
        [fn([0] * j + [y] + [0] * (width - j - 1)) for y in module.I.elements()]
        for j in range(width)
    ]
    rows = []
    for o in range(len(fn([0] * width))):
        entries = [(j, tuple(out[o] for out in images)) for j, images in enumerate(columns)]
        rows.append([(j, e) for j, e in entries if any(e)])
    return rows


def scan_d1(module, budget=DEFAULT_COHOMOLOGY_BUDGET):
    """Oracle for cohomology._z1_b2: Z1 = ker d1 and B2 = im d1 as sorted
    value vectors, each checked closed, from one compile of d1 and one scan
    of TC^1, budget permitting."""
    nh, ni = module.H.order, module.I.order
    size = ni ** (nh - 1)
    if size > budget:
        raise BudgetError(f"TC^1 space of size {size} exceeds budget {budget}",
                          stage="TC^1", size=size)
    rows, add = _compile(module, nh - 1, _d1_map(module)), module.I.table
    kernel, image = [], set()
    for v in itertools.product(module.I.elements(), repeat=nh - 1):
        d = tuple(_apply(add, row, v) for row in rows)
        image.add(d)
        if not any(d):
            kernel.append(v)
    image = sorted(image)
    _verify_closed(add, kernel, "Z1")
    _verify_closed(add, image, "B2")
    return kernel, image


def scan_z2(module, budget=DEFAULT_COHOMOLOGY_BUDGET):
    """Oracle for cohomology.z2_rbe: all 2-cocycle pairs, sorted by value
    vector, by a scan of TC^2.

    Rows of d2 that read only tau are checked per tau up to the first nonzero
    one.  Each other row splits into a tau part, evaluated once per surviving
    tau, and a g part, evaluated once per g; the pair is a cocycle when the
    parts cancel on every such row.
    """
    i, k1 = module.I, module.H.order - 1
    total = i.order ** (k1 * k1 + k1)
    if total > budget:
        raise BudgetError(
            f"TC^2 space of size {total} exceeds budget {budget}; "
            "membership predicates still work at this size",
            stage="TC^2", size=total,
        )

    tau_rows, tau_parts, g_parts = [], [], []
    for row in _compile(module, k1 * k1 + k1, _d2_map(module)):
        g_part = [(j - k1 * k1, e) for j, e in row if j >= k1 * k1]
        if g_part:
            tau_parts.append([(j, e) for j, e in row if j < k1 * k1])
            g_parts.append(g_part)
        elif row:
            tau_rows.append(row)
    solutions: dict = {}  # g part of d2 -> the g vectors giving it, in scan order
    for g in itertools.product(i.elements(), repeat=k1):
        solutions.setdefault(tuple(_apply(i.table, row, g) for row in g_parts), []).append(g)
    keys = []
    for tau in itertools.product(i.elements(), repeat=k1 * k1):
        if any(_apply(i.table, row, tau) for row in tau_rows):
            continue
        want = tuple(i.inverses[_apply(i.table, row, tau)] for row in tau_parts)
        keys += [tau + g for g in solutions.get(want, ())]
    _verify_closed(i.table, keys, "Z2")
    return [_pair(module, k) for k in keys]


def scan_h2(module, budget=DEFAULT_COHOMOLOGY_BUDGET):
    """Oracle for cohomology.h2_rbe: Z2/B2 over the scans of TC^2 and TC^1."""
    b2 = [_pair(module, k) for k in scan_d1(module, budget)[1]]
    return pairwise_h2(module, scan_z2(module, budget), b2)


def _verify_closed(add, keys, name: str) -> None:
    """Raise unless the value vectors keys (over I's addition table add) are
    closed under addition; an empty list passes.  A nonempty finite set is
    closed iff it is the subgroup it generates, grown coset by coset: one
    addition per member instead of every pair."""
    if keys and set(_coset_generators(add, keys, len(keys[0]))[1]) != set(keys):
        raise AssertionError(f"{name} is not closed under addition")


def pairwise_verify_closed(add, keys, name: str) -> None:
    """Oracle for _verify_closed: the sum of every pair of keys."""
    keyed = set(keys)
    for a in keys:
        for b in keys:
            if tuple(add[x][y] for x, y in zip(a, b)) not in keyed:
                raise AssertionError(f"{name} is not closed under addition")


def _bf_verify_closed(elements, add, name: str) -> None:
    keyed = {e.key() for e in elements}
    for a in elements:
        for b in elements:
            if add(a, b).key() not in keyed:
                raise AssertionError(f"{name} is not closed under addition")


def _is_one_cocycle(theta) -> bool:
    p = d1_rbe(theta)
    return p.tau.is_zero() and p.g.is_zero()


def brute_force_z1(module, budget=DEFAULT_COHOMOLOGY_BUDGET):
    """Oracle: every 1-cochain, kept when d1 of it vanishes."""
    nh, ni = module.H.order, module.I.order
    size = ni ** (nh - 1)
    if size > budget:
        raise BudgetError(f"TC^1 space of size {size} exceeds budget {budget}")
    out = [t for t in enumerate_cochains(module, 1) if _is_one_cocycle(t)]
    _bf_verify_closed(out, lambda a, b: a.add(b), "Z1")
    return out


def brute_force_z2(module, budget=DEFAULT_COHOMOLOGY_BUDGET):
    """Oracle: every (tau, g) pair, kept when d2 of it vanishes."""
    nh, ni = module.H.order, module.I.order
    total = ni ** ((nh - 1) ** 2 + (nh - 1))
    if total > budget:
        raise BudgetError(
            f"TC^2 space of size {total} exceeds budget {budget}; "
            "membership predicates still work at this size"
        )
    out = []
    for tau in enumerate_cochains(module, 2):
        dt = delta(tau)
        if not dt.is_zero():
            continue
        for g in enumerate_cochains(module, 1):
            pair = CocyclePair(tau, g)
            if is_two_cocycle(module, pair):
                out.append(pair)
    out.sort(key=lambda p: p.key())
    _bf_verify_closed(out, lambda a, b: a.add(b), "Z2")
    return out


def brute_force_b2(module, budget=DEFAULT_COHOMOLOGY_BUDGET):
    """Oracle: d1 of every 1-cochain, deduplicated and sorted."""
    nh, ni = module.H.order, module.I.order
    size = ni ** (nh - 1)
    if size > budget:
        raise BudgetError(f"TC^1 space of size {size} exceeds budget {budget}")
    seen = {}
    for theta in enumerate_cochains(module, 1):
        p = d1_rbe(theta)
        seen.setdefault(p.key(), p)
    out = [seen[k] for k in sorted(seen)]
    _bf_verify_closed(out, lambda a, b: a.add(b), "B2")
    return out


def brute_force_h2(module, budget=DEFAULT_COHOMOLOGY_BUDGET):
    """Oracle: Z2/B2 from the oracle scans."""
    return pairwise_h2(module, brute_force_z2(module, budget), brute_force_b2(module, budget))


def pairwise_h2(module, z2, b2):
    """Z2/B2 from sorted lists of pairs, cosets indexed pair by pair."""
    z2_keys = {p.key() for p in z2}
    for b in b2:
        if b.key() not in z2_keys:
            raise AssertionError("B2 is not contained in Z2")
    if len(z2) % len(b2) != 0:
        raise AssertionError("|B2| does not divide |Z2|")
    class_index: dict = {}
    reps = []
    for p in z2:
        if p.key() in class_index:
            continue
        reps.append(p)
        for b in b2:
            q = p.add(b)
            class_index[q.key()] = p
    return H2Result(module, z2, b2, reps, class_index)


# ---------------------------------------------------------------------------
# census oracles: verify_triplet on every (mu, tau, g) candidate, the group
# check on every (mu, tau) table, and the g loop at every solved (mu, tau)
# ---------------------------------------------------------------------------


def _census_candidates(h_rb, i_rb, alpha, budget):
    """The mu lifts and the tau tables over every slot, after the budget on
    the full mu x tau x g product."""
    h, i = h_rb.group, i_rb.group
    nh, ni = h.order, i.order
    identity = tuple(i.elements())
    lifts = [alpha.coset_members(hh) for hh in h.elements()]
    if identity not in lifts[0]:
        raise ValueError("coupling must be trivial at the identity")
    total = 1
    for hh in range(1, nh):
        total *= len(lifts[hh])
    total *= ni ** ((nh - 1) ** 2) * ni ** (nh - 1)
    if total > budget:
        raise BudgetError(f"triplet census of size {total} exceeds budget {budget}")

    tau_slots = [(h1, h2) for h1 in range(1, nh) for h2 in range(1, nh)]
    taus = []
    for tau_vals in itertools.product(i.elements(), repeat=len(tau_slots)):
        tau_tab = [[0] * nh for _ in range(nh)]
        for (h1, h2), v in zip(tau_slots, tau_vals):
            tau_tab[h1][h2] = v
        taus.append(tuple(tuple(row) for row in tau_tab))
    mus = [(identity,) + choice for choice in itertools.product(*lifts[1:])]
    return mus, taus


def _census_of(h_rb, i_rb, alpha, valid):
    h, i = h_rb.group, i_rb.group

    def orbit(k):
        for theta in _thetas(h, i, "triplet equivalence", DEFAULT_THETA_BUDGET):
            yield _shift_triplet(valid[k], theta, h_rb, i_rb).key()

    classes = _orbit_classes([t.key() for t in valid], orbit)
    reps = [min((valid[i] for i in cls), key=lambda t: t.key()) for cls in classes]
    return TripletCensus(h_rb, i_rb, alpha, valid, classes, reps)


def brute_force_census(h_rb, i_rb, alpha, budget=DEFAULT_TRIPLET_BUDGET):
    """Oracle: the triplet census with one full verify_triplet per candidate."""
    mus, taus = _census_candidates(h_rb, i_rb, alpha, budget)
    gs = [(0,) + rest for rest in itertools.product(i_rb.group.elements(),
                                                    repeat=h_rb.group.order - 1)]
    valid = [Triplet(mu, tau, g) for mu in mus for tau in taus for g in gs
             if verify_triplet(Triplet(mu, tau, g), h_rb, i_rb) is None]
    return _census_of(h_rb, i_rb, alpha, valid)


def table_filter_census(h_rb, i_rb, alpha, budget=DEFAULT_TRIPLET_BUDGET):
    """Oracle: the triplet census that builds every (mu, tau) table and keeps
    those passing the full-scan group check, then tests every g on them."""
    h, i = h_rb.group, i_rb.group
    mus, taus = _census_candidates(h_rb, i_rb, alpha, budget)
    valid = []
    for mu in mus:
        if _mu_witness(mu, i) is not None:
            continue
        for tau in taus:
            table = _candidate_table(h, i, mu, tau)
            if full_scan_witness(table) is not None:
                continue
            e_group = FiniteGroup(table, name="candidate", check=False)
            for g_vals in itertools.product(i.elements(), repeat=h.order - 1):
                g = (0,) + g_vals
                if scan_rb_witness(e_group, _candidate_operator(h_rb, i_rb, mu, g)) is None:
                    valid.append(Triplet(mu, tau, g))
    return _census_of(h_rb, i_rb, alpha, valid)


def g_loop_census(h_rb, i_rb, alpha, budget=DEFAULT_TRIPLET_BUDGET):
    """Oracle: the census that solves (mu, tau) by Schreier's conditions, as
    h2_alpha does, then tests every g at every solved pair and classifies
    the valid triplets by their theta-orbits afterwards."""
    h, i = h_rb.group, i_rb.group
    nh, ni = h.order, i.order
    if alpha.kernel != i.table:
        raise ValueError("coupling is over a different kernel")
    identity = tuple(i.elements())
    lifts = [alpha.coset_members(hh) for hh in h.elements()]
    if identity not in lifts[0]:
        raise ValueError("coupling must be trivial at the identity")
    cosets = _schreier_cosets(i)
    tau_slots = [(h1, h2) for h1 in range(1, nh) for h2 in range(1, nh)]
    total = len(cosets[identity]) ** len(tau_slots)
    for hh in range(1, nh):
        total *= len(lifts[hh])
    if total > budget:
        raise BudgetError(f"triplet census of size {total} exceeds budget {budget}",
                          stage="triplet census (mu, tau)", size=total)

    solved = []
    for mu_choice in itertools.product(*lifts[1:]):
        mu = (identity,) + mu_choice
        if _mu_witness(mu, i) is not None:
            continue
        for tau_vals in itertools.product(*_tau_choices(h, mu, cosets, tau_slots)):
            tau_tab = [[0] * nh for _ in range(nh)]
            for (h1, h2), v in zip(tau_slots, tau_vals):
                tau_tab[h1][h2] = v
            tau = tuple(tuple(row) for row in tau_tab)
            if _schreier_cocycle(h, i, mu, tau):
                solved.append((mu, tau))
    total = len(solved) * ni ** (nh - 1)
    if total > budget:
        raise BudgetError(f"triplet census of size {total} exceeds budget {budget}",
                          stage="triplet census (mu, tau, g)", size=total)

    valid = []
    for mu, tau in solved:
        table = _candidate_table(h, i, mu, tau)
        if (w := group_table_witness(table)) is not None:
            raise AssertionError(f"Schreier's conditions passed a table failing {w}")
        e_group = FiniteGroup(table, name="candidate", check=False)
        for g_vals in itertools.product(i.elements(), repeat=nh - 1):
            g = (0,) + g_vals
            if is_rb_operator(e_group, _candidate_operator(h_rb, i_rb, mu, g)):
                valid.append(Triplet(mu, tau, g))
    return _census_of(h_rb, i_rb, alpha, valid)


# ---------------------------------------------------------------------------
# central action oracle: each H2 representative, then each of its B2 shifts
# ---------------------------------------------------------------------------


def coset_central_action(census, budget=DEFAULT_COHOMOLOGY_BUDGET):
    """Oracle: central_action's report, translating each census representative
    by each H2 representative and then by each of its B2 shifts, with every
    tau and g entry read off the pair one at a time."""
    h, i = census.h_rb.group, census.i_rb.group
    module, z_elems = center_module(census)
    h2 = h2_rbe(module, budget)
    hs = h.elements()

    def embed(pair):
        return (tuple(tuple(z_elems[pair.tau((a, b))] for b in hs) for a in hs),
                tuple(z_elems[pair.g((a,))] for a in hs))

    action_table, free, witnesses = [], True, []
    for pi, rep_pair in enumerate(h2.representatives):
        row = []
        rep_z = embed(rep_pair)
        coset = [embed(rep_pair.add(b)) for b in h2.b2]
        for ci, rep_t in enumerate(census.representatives):
            target = census._class_index.get(_times(rep_t, rep_z, i).key())
            if target is None:
                raise AssertionError("translated triplet is no longer valid")
            row.append(target)
            if pi != 0 and target == ci:
                free = False
                witnesses.append({"h2_class": pi, "census_class": ci})
            for moved in coset:
                if census.class_of(_times(rep_t, moved, i)) != target:
                    raise AssertionError("central action is not well-defined")
        action_table.append(row)
    if action_table[0] != list(range(census.num_classes)):
        raise AssertionError("identity class does not act as the identity")
    orbits = len(_orbit_classes(list(range(census.num_classes)),
                                lambda ci: (row[ci] for row in action_table)))
    return {
        "h2_center_order": h2.order_h2,
        "num_classes": census.num_classes,
        "free": free,
        "orbits": orbits,
        "transitive": orbits == 1,
        "action": action_table,
        "witnesses": witnesses,
    }


# ---------------------------------------------------------------------------
# extension equivalence oracle: test every theta as a map of carriers
# ---------------------------------------------------------------------------


def same_module(m1, m2) -> bool:
    return (
        m1.H.table == m2.H.table
        and m1.rh == m2.rh
        and m1.I.table == m2.I.table
        and m1.ri == m2.ri
        and m1.action == m2.action
    )


def brute_force_equivalent(e1, e2, budget=DEFAULT_THETA_BUDGET):
    """Fiber-preserving Rota-Baxter isomorphism (h,y) -> (h, y + theta(h)), or None.

    Exhausts all |I|^(|H|-1) candidate theta maps.
    """
    if not same_module(e1.module, e2.module):
        raise ValueError("extensions live over different modules")
    m = e1.module
    h, i = m.H, m.I
    ni = i.order
    for theta in _thetas(h, i, "extension equivalence", budget):
        images = tuple(
            hh * ni + i.table[y][theta[hh]] for hh in h.elements() for y in i.elements()
        )
        cand = GroupMap(e1.E, e2.E, images)
        if not scan_is_homomorphism(cand):
            continue
        if all(
            images[e1.operator.images[x]] == e2.operator.images[images[x]]
            for x in e1.E.elements()
        ):
            return cand
    return None


# ---------------------------------------------------------------------------
# Wells oracle: the derivation law over every pair of C_mu
# ---------------------------------------------------------------------------


def formula_act_on_pair(module, c, pair):
    """Oracle for `wells.act_on_pair`: each value of (tau, g)^(phi, psi) read
    off its formula psi^-1(tau(phi h1, phi h2)), psi^-1(g(phi h))."""
    phi, psi = c
    psi_inv = [0] * module.I.order
    for y, img in enumerate(psi.images):
        psi_inv[img] = y
    tau = Cochain.from_callable(
        module, 2, lambda h1, h2: psi_inv[pair.tau((phi.images[h1], phi.images[h2]))]
    )
    g = Cochain.from_callable(module, 1, lambda h: psi_inv[pair.g((phi.images[h],))])
    return CocyclePair(tau, g)


def filter_aut_I(ext, bound=64):
    """Oracle for `wells.rho`: [(gamma, gamma_H, gamma_I)] over the Rota-Baxter
    automorphisms of E that map the kernel copy into itself, found by
    filtering all of Aut(E), sorted by gamma."""
    kernel = set(ext.include.images)
    return [
        (f, *gamma_parts(ext, f))
        for f in rb_automorphisms(ext.E, ext.operator, bound)
        if all(f.images[x] in kernel for x in kernel)
    ]


def shift_eta(ext, lam):
    """The automorphism s(h) i(y) -> s(h) i(lam(h) + y) attached to a derivation."""
    return ext.shift_map(ext, (0,) + lam.vector)


def all_pairs_z1_iso(ext, z1, hi):
    """Oracle for `wells._z1_iso`, with eta built as the section shift
    (`shift_eta`): eta and zeta are mutually inverse, with
    eta(a + b) = eta(a) eta(b) checked for every pair (a, b) of Z1, not only
    for b in a generating set."""
    eta_images = {}
    ok = True
    for lam in z1:
        f = shift_eta(ext, lam)
        if not scan_is_homomorphism(f):
            ok = False
        if not all(
            f.images[ext.operator.images[x]] == ext.operator.images[f.images[x]]
            for x in ext.E.elements()
        ):
            ok = False
        if zeta(ext, f).vector != lam.vector:
            ok = False
        eta_images[f.images] = lam
    if {f.images for f in hi} != set(eta_images):
        ok = False
    for f in hi:
        if shift_eta(ext, zeta(ext, f)).images != f.images:
            ok = False
    for a in z1:
        for b in z1:
            if shift_eta(ext, a.add(b)).images != compose(shift_eta(ext, a),
                                                       shift_eta(ext, b)).images:
                ok = False
    return {"z1_order": len(z1), "autHI_order": len(hi), "isomorphic": ok}


def all_pairs_wells_report(ext):
    """Oracle for `check_wells_exactness`: its report, with the eta
    homomorphism law checked over every pair of Z1 (`all_pairs_z1_iso`), and
    the derivation law omega(c1 c2) = omega(c1)^c2 + omega(c2) over every
    pair (c1, c2) of C_mu, not only for c2 in a generating set."""
    report = check_wells_exactness(ext)
    m = ext.module
    h2, cmu = h2_rbe(m), c_mu(m)
    omega_by_key = {(c[0].images, c[1].images): cls for c, cls in wells_map(ext, h2, cmu)}
    exact_at_autI = all_pairs_z1_iso(ext, z1_rbe(m), aut_HI(ext))["isomorphic"]
    witnesses = [] if exact_at_autI else [
        {"joint": "autI", "reason": "Z1 does not match Ker(rho)"}]
    witnesses += [w for w in report["witnesses"] if w["joint"] not in ("autI", "derivation")]
    derivation_ok = True
    for c1 in cmu:
        for c2 in cmu:
            c12 = compose_pairs(c1, c2)
            lhs = omega_by_key[(c12[0].images, c12[1].images)]
            cls1 = omega_by_key[(c1[0].images, c1[1].images)]
            cls2 = omega_by_key[(c2[0].images, c2[1].images)]
            rhs = h2.class_of(act_on_pair(m, c2, cls1).add(cls2))
            if lhs.key() != rhs.key():
                derivation_ok = False
                witnesses.append(
                    {
                        "joint": "derivation",
                        "c1": [list(c1[0].images), list(c1[1].images)],
                        "c2": [list(c2[0].images), list(c2[1].images)],
                    }
                )
    return {**report, "exact_at_autI": exact_at_autI, "omega_is_derivation": derivation_ok,
            "witnesses": witnesses}


# ---------------------------------------------------------------------------
# brace -> operator oracle: depth-first search with a consistency check
# ---------------------------------------------------------------------------


def dfs_inducing_brace(brace, bound=DEFAULT_ENUM_BOUND):
    """Oracle: the brace-to-operator search that checks each assignment
    against the homomorphism law instead of propagating it."""
    w = scan_skew_brace_witness(brace)
    if w is not None:
        raise ValueError(f"not a skew brace: {w[0]} at {w[1]}")
    if brace.order > bound:
        raise BudgetError(f"search bound exceeded: order {brace.order} > {bound}")
    add = brace.add_group()
    circ = brace.circ
    n = brace.order
    candidates: list[list[int]] = []
    for x in range(n):
        target = [add.mul(add.inv(x), circ[x][y]) for y in range(n)]
        cands = [
            z
            for z in range(n)
            if all(add.conj(z, y) == target[y] for y in range(n))
        ]
        if not cands:
            return None
        candidates.append(cands)
    if 0 not in candidates[0]:
        return None

    values = [-1] * n
    values[0] = 0
    found: list[tuple[int, ...]] = []

    def consistent(x: int) -> bool:
        for y in range(n):
            if values[y] < 0:
                continue
            for a, b in ((x, y), (y, x)):
                z = circ[a][b]
                if values[z] >= 0 and values[z] != add.mul(values[a], values[b]):
                    return False
        return True

    def dfs() -> bool:
        x = next((i for i in range(n) if values[i] < 0), None)
        if x is None:
            found.append(tuple(values))
            return True
        for v in candidates[x]:
            values[x] = v
            if consistent(x) and dfs():
                return True
            values[x] = -1
        return False

    if not dfs():
        return None
    op = RotaBaxterOperator(add, found[0])
    assert scan_rb_witness(add, op.images) is None
    return op
