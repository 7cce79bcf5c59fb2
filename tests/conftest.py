import itertools
from pathlib import Path

import pytest

from rbgroups.groups import automorphisms, endomorphisms, make_group
from rbgroups.cohomology import RBModule, is_rb_module
from rbgroups.operators import enumerate_rb_operators, rb_witness

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


def brute_force_operators(g):
    """Oracle: scan every map with R(e) = e against the law directly."""
    found = []
    for rest in itertools.product(range(g.order), repeat=g.order - 1):
        im = (0,) + rest
        if rb_witness(g, im) is None:
            found.append(im)
    return sorted(found)


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


def all_modules(h_name, i_name, require_commuting=False):
    """Every valid RBModule on the given carriers (abelian H, so operators =
    endomorphisms); optionally only those with mu_h commuting with R_I."""
    h, igroup = make_group(h_name), make_group(i_name)
    mods = []
    for hop in enumerate_rb_operators(h):
        for ri in [f.images for f in endomorphisms(igroup)]:
            for act in anti_actions(h, igroup):
                if not is_rb_module(hop, igroup, ri, act):
                    continue
                m = RBModule(hop, igroup, ri, act)
                if require_commuting and not m.mu_commutes_with_ri():
                    continue
                mods.append(m)
    return mods
