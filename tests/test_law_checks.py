"""Every law checked at generators (`groups._law_witness`) against the scan of
every pair it replaced, every "f carries a onto b" check
(`groups._intertwine_witness`) against the loop it replaced, and the
operator search's propagation against the walk that also multiplied the new
generator by every fixed element."""

import contextlib
import random
import re
import sys
import warnings
from collections import defaultdict

import pytest
from conftest import (
    all_modules,
    anti_actions,
    block_propagate,
    relabelled,
    scan_action_witness,
    scan_intertwine,
    scan_is_anti_homomorphism,
    scan_is_brace_morphism,
    scan_is_homomorphism,
    scan_rb_module_witness,
    scan_skew_brace_witness,
)

from rbgroups import cohomology, extensions, groups, operators, wells
from rbgroups.cohomology import (
    mu_twist_action,
    rb_module_witness,
    validate_circle_action,
    z2_rbe,
)
from rbgroups.extensions import build_abelian_extension
from rbgroups.groups import (
    GroupMap,
    action_witness,
    automorphisms,
    endomorphisms,
    identity_map,
    inversion_map,
    is_anti_homomorphism,
    is_homomorphism,
    make_group,
)
from rbgroups.operators import (
    SkewBrace,
    enumerate_rb_operators,
    induced_skew_brace,
    is_brace_morphism,
    rb_morphism_witness,
    skew_brace_witness,
)
from rbgroups.wells import check_wells_exactness

MAP_GROUPS = ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3", "Z8", "Z2xZ4", "Z2xZ2xZ2",
              "D4", "Q8", "Z9", "Z3xZ3", "D5", "Z12", "D6", "D4xZ2", "Q8xZ2", "S3xZ3", "D9",
              "S4", "D12", "Q8xZ3"]


def _swapped(images, i, j):
    out = list(images)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _map_cases(name):
    """Maps g -> g and Z1 -> g, for g and a relabelled copy."""
    z1, z2 = make_group("Z1"), make_group("Z2")
    for g in (make_group(name), relabelled(make_group(name), 1)):
        rng = random.Random(g.name)
        n = g.order
        maps = [identity_map(g), inversion_map(g)]
        for f in automorphisms(g).elements:
            maps.append(f)
            if n > 1:
                maps.append(GroupMap(g, g, _swapped(f.images, *rng.sample(range(n), 2))))
        maps += [GroupMap(g, g, (c,) * n) for c in g.elements()]
        maps += [GroupMap(g, g, (0, *(rng.randrange(n) for _ in range(n - 1)))) for _ in range(5)]
        maps += [GroupMap(g, g, tuple(rng.randrange(n) for _ in range(n))) for _ in range(5)]
        maps += [GroupMap(z1, g, (c,)) for c in g.elements()] + [GroupMap(z1, z2, (1,))]
        for f in maps:
            yield is_homomorphism, scan_is_homomorphism, (f,)
            yield is_anti_homomorphism, scan_is_anti_homomorphism, (f,)


def _brace_cases(name):
    """Braces of every operator, each with two entries of a circ row swapped
    and under a relabelled addition; morphisms between them."""
    g = make_group(name)
    n, rng = g.order, random.Random(name)
    other_add = relabelled(g, 2).table
    inverse = tuple(g.inverses)
    for op in enumerate_rb_operators(g, bound=24):
        brace = induced_skew_brace(g, op)
        a, b1, b2 = rng.randrange(n), *rng.sample(range(1, n), 2)
        circ = list(brace.circ)
        circ[a] = _swapped(circ[a], b1, b2)
        broken = SkewBrace(n, brace.add, tuple(circ))
        twisted = SkewBrace(n, other_add, brace.circ)
        for b in (brace, broken, twisted):
            yield skew_brace_witness, scan_skew_brace_witness, (b,)
        shuffled = (0, *rng.sample(range(1, n), n - 1))
        for images in (tuple(range(n)), inverse, shuffled):
            for source, target in ((brace, brace), (broken, brace), (brace, broken),
                                   (twisted, brace), (brace, twisted)):
                yield is_brace_morphism, scan_is_brace_morphism, (images, source, target)


def _module_cases(hname, iname):
    """Modules with R_I changed at one element, every way."""
    for m in all_modules(hname, iname):
        for y in m.I.elements():
            for v in m.I.elements():
                ri = m.ri[:y] + (v,) + m.ri[y + 1:]
                yield rb_module_witness, scan_rb_module_witness, (m.hop, m.I, ri, m.action)


def _action_cases(hname, iname):
    """The trivial action, and families of automorphisms of I indexed by H, most
    not anti-homomorphic."""
    h, i = make_group(hname), make_group(iname)
    auts = [f.images for f in automorphisms(i).elements]
    rng = random.Random(hname + iname)
    yield action_witness, scan_action_witness, (i, (auts[0],) * h.order, h.table)
    for _ in range(60):
        maps = (auts[0], *(rng.choice(auts) for _ in range(h.order - 1)))
        yield action_witness, scan_action_witness, (i, maps, h.table)


CASES = ([("maps", name) for name in MAP_GROUPS]
         + [("braces", name) for name in ("S3", "D4", "Q8", "S4")]
         + [("modules", ("Z2", "Z2xZ2")), ("modules", ("Z3", "Z3"))]
         + [("actions", pair) for pair in (("Z4", "Z2xZ2"), ("S3", "Q8"), ("Z2xZ2", "Z3"))])


@pytest.mark.parametrize("family, arg", CASES, ids=[f"{f}-{a}" for f, a in CASES])
def test_routed_check_matches_its_scan(family, arg):
    cases = {"maps": _map_cases, "braces": _brace_cases,
             "modules": lambda p: _module_cases(*p), "actions": lambda p: _action_cases(*p)}
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # enumerating S4 warns of its order
        for check, scan, args in cases[family](arg):
            want = scan(*args)
            assert check(*args) == want, (check.__name__, args)
            outcomes.add(want is None or want is True)
    assert outcomes == {True, False}  # both verdicts occur in every family


def test_the_group_of_order_one_checks_its_identity():
    z1, z2 = make_group("Z1"), make_group("Z2")
    assert z1._generators == ()
    assert not is_homomorphism(GroupMap(z1, z2, (1,)))
    assert not is_anti_homomorphism(GroupMap(z1, z2, (1,)))
    assert is_homomorphism(GroupMap(z1, z2, (0,)))


# the carriers of the modules, extensions and Wells reports the intertwining
# checks are compared on
INTERTWINE_PAIRS = (("Z2", "Z4"), ("Z4", "Z2"), ("Z3", "Z3"), ("Z2", "Z2xZ2"), ("Z2xZ2", "Z2"))
ROUTED = {"rb_morphism_witness", "rb_automorphisms", "_is_lift", "_verify_extension_invariants",
          "mu_commutes_with_ri", "validate_circle_action", "in_c_mu"}


@pytest.fixture
def intertwine_calls(monkeypatch):
    """{(f, a, b): the functions that asked} over every `_intertwine_witness`
    call made while the test runs."""
    real, calls = groups._intertwine_witness, defaultdict(set)

    def recorded(f, a, b):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension inside the caller
            frame = frame.f_back
        calls[tuple(f), tuple(a), tuple(b)].add(frame.f_code.co_name)
        return real(f, a, b)

    for module in (operators, cohomology, extensions, wells):
        monkeypatch.setattr(module, "_intertwine_witness", recorded)
    return calls


def test_every_intertwining_check_matches_its_scan(intertwine_calls):
    """The (f, a, b) the seven routed functions see on modules, extensions,
    Wells reports and operator pairs, and every one-entry mutant of f."""
    for pair in INTERTWINE_PAIRS:
        for m in all_modules(*pair):
            m.mu_commutes_with_ri()
            with contextlib.suppress(ValueError):  # mu_R intertwines iff mu commutes with R_I
                validate_circle_action(m, mu_twist_action(m))
            z2 = z2_rbe(m)
            for p in (z2[0], z2[-1]):
                check_wells_exactness(build_abelian_extension(m, p))
    for name in ("S3", "D4"):
        g = make_group(name)
        ops = enumerate_rb_operators(g)
        for f in automorphisms(g).elements:
            for r1, r2 in zip(ops, ops[1:] + ops[:1]):
                rb_morphism_witness(f, r1, r1)
                rb_morphism_witness(f, r1, r2)
    assert set().union(*intertwine_calls.values()) == ROUTED
    verdicts = set()
    for f, a, b in intertwine_calls:
        for x in range(-1, len(f)):  # f itself, then f changed at x
            g = f if x < 0 else f[:x] + ((f[x] + 1) % len(b),) + f[x + 1:]
            want = scan_intertwine(g, a, b)
            assert groups._intertwine_witness(g, a, b) == want, (g, a, b)
            verdicts.add(want is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_rb_morphism_witness_is_the_scans_first_element(name):
    g = make_group(name)
    ops = enumerate_rb_operators(g)
    witnesses = set()
    for f in endomorphisms(g):
        for r1 in ops:
            for r2 in ops[::5]:
                w = rb_morphism_witness(f, r1, r2)
                assert w == scan_intertwine(f.images, r1.images, r2.images)
                witnesses.add(w)
    assert None in witnesses and len(witnesses) > 2


def test_validate_circle_action_names_the_scans_first_pair():
    """Over every anti-homomorphism of the circle group into Aut(I), the (h, y)
    named is the first failing one of the loop over h, then y."""
    named = set()
    for pair in INTERTWINE_PAIRS:
        for m in all_modules(*pair):
            for sigma in anti_actions(m.circle, m.I):
                if action_witness(m.I, sigma, m.circle.table) is not None:
                    continue
                want = next(((h, y) for h, row in enumerate(sigma)
                             if (y := scan_intertwine(m.ri, row, m.action[m.rh[h]])) is not None),
                            None)
                if want is None:
                    validate_circle_action(m, sigma)
                else:
                    with pytest.raises(ValueError, match=re.escape(f"fails at {want}") + "$"):
                        validate_circle_action(m, sigma)
                named.add(want)
    assert None in named and len(named) > 2


@pytest.fixture
def both_walks(monkeypatch):
    """Run `_propagate` and `block_propagate` on copies of every call's state
    and require the same verdict, fixed set and values."""
    walk, calls = groups._propagate, []

    def checked(rows, table, values, trail, done, gens):
        mark = len(done)
        values2, trail2, done2 = list(values), list(trail), list(done)
        want = block_propagate(rows, table, values2, trail2, done2, list(gens))
        got = walk(rows, table, values, trail, done, gens)
        assert got == want and set(done) == set(done2)
        clash = len(done) == mark  # both stopped at two values for one element
        assert clash == (len(done2) == mark)
        if clash:  # each leaves its own partial trail, which `_dfs` resets
            values = [-1 if k in trail else v for k, v in enumerate(values)]
            values2 = [-1 if k in trail2 else v for k, v in enumerate(values2)]
        assert values == values2 and (clash or set(trail) == set(trail2))
        calls.append("fixed" if got else "clash" if clash else "lagrange")
        return got

    monkeypatch.setattr(groups, "_propagate", checked)
    monkeypatch.setattr(operators, "_propagate", checked)
    return calls


def test_the_walk_from_the_new_generator_fixes_the_generated_subgroup(both_walks):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        counts = [len(enumerate_rb_operators(make_group(name), bound=48))
                  for name in ("D4xZ2", "S3xS3", "D18", "S4xZ2", "Q8xZ4")]
    auts = [len(automorphisms(make_group(name))) for name in ("S4", "Q8xZ2")]
    assert counts == [2176, 784, 224, 1888, 1024] and auts == [24, 192]
    assert set(both_walks) == {"fixed", "clash", "lagrange"}
