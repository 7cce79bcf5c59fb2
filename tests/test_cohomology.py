import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ORACLE_PAIRS,
    all_modules,
    anti_actions,
    brute_force_b2,
    brute_force_h2,
    brute_force_z1,
    brute_force_z2,
    closure_d2_rbe,
    closure_delta,
    closure_partial,
    closure_phi1,
    closure_phi2,
    element_probe_compile,
    _verify_closed,
    pairwise_verify_closed,
    scan_d1,
    scan_h2,
    scan_z2,
)

from rbgroups.groups import (BudgetError, _generated, _greedy_generators, action_witness,
                             endomorphisms, make_group)
from rbgroups import cohomology
from rbgroups.operators import RotaBaxterOperator
from rbgroups.cohomology import (
    _apply,
    _coset_generators,
    _vadd,
    _compile,
    _d1_map,
    _d2_map,
    _kernel,
    Cochain,
    CocyclePair,
    RBModule,
    b2_rbe,
    bar,
    d1_rbe,
    d2_rbe,
    delta,
    delta_rb,
    enumerate_cochains,
    h2_rbe,
    is_rb_module,
    is_two_cocycle,
    mu_twist_action,
    partial,
    partial_circ,
    partial_rb,
    phi1,
    phi2,
    rb_module_witness,
    ri_after,
    trivial_action,
    validate_circle_action,
    z1_rbe,
    z2_rbe,
)


def module_zx(hname, iname, rh=None, ri=None, action=None):
    h, igroup = make_group(hname), make_group(iname)
    hop = RotaBaxterOperator(h, rh if rh is not None else (0,) * h.order)
    if ri is None:
        ri = tuple(igroup.elements())
    if action is None:
        action = trivial_action(h, igroup)
    return RBModule(hop, igroup, ri, action)


# ---------------------------------------------------------------------------
# module condition
# ---------------------------------------------------------------------------


def test_trivial_action_admits_every_endomorphism():
    h, z4 = make_group("Z2"), make_group("Z4")
    hop = RotaBaxterOperator(h, (0, 0))
    for f in endomorphisms(z4):
        assert is_rb_module(hop, z4, f.images, trivial_action(h, z4))


def test_zero_ri_admits_every_action():
    h, z4 = make_group("Z2"), make_group("Z4")
    for hop_images in [(0, 0), (0, 1)]:
        hop = RotaBaxterOperator(h, hop_images)
        for action in anti_actions(h, z4):
            assert is_rb_module(hop, z4, (0,) * 4, action)


def test_negation_ri_is_always_a_module():
    h, z4 = make_group("Z2"), make_group("Z4")
    for hop_images in [(0, 0), (0, 1)]:
        hop = RotaBaxterOperator(h, hop_images)
        for action in anti_actions(h, z4):
            assert is_rb_module(hop, z4, z4.inverses, action)


def test_idempotent_ri_commuting_with_action():
    # on exponent-2 groups R^2 = -R means R idempotent; identity qualifies
    h, v4 = make_group("Z2"), make_group("Z2xZ2")
    hop = RotaBaxterOperator(h, (0, 0))
    for action in anti_actions(h, v4):
        assert is_rb_module(hop, v4, tuple(v4.elements()), action)


def test_module_condition_violation_witness():
    h, z3 = make_group("Z2"), make_group("Z3")
    hop = RotaBaxterOperator(h, (0, 0))
    inversion = ((0, 1, 2), (0, 2, 1))
    w = rb_module_witness(hop, z3, (0, 1, 2), inversion)
    assert w is not None and w[0] == "module-condition"
    with pytest.raises(ValueError, match="module-condition"):
        RBModule(hop, z3, (0, 1, 2), inversion)


def test_module_witness_kinds(s3):
    h = make_group("Z2")
    hop = RotaBaxterOperator(h, (0, 0))
    w = rb_module_witness(hop, s3, tuple(s3.elements()), trivial_action(h, s3))
    assert w == ("abelian", ())
    z4 = make_group("Z4")
    w = rb_module_witness(hop, z4, (0, 1, 1, 1), trivial_action(h, z4))
    assert w[0] == "ri-endomorphism"
    w = rb_module_witness(hop, z4, (0, 1, 2, 3), ((0, 1, 2, 3), (0, 0, 0, 0)))
    assert w[0] == "action-bijective"
    z5 = make_group("Z5")
    hop5 = RotaBaxterOperator(make_group("Z4"), (0, 0, 0, 0))
    # mu_1 = x -> 2x has order 4 in Aut(Z5); not anti-compatible with Z4? it is
    # (cyclic). Break anti-homomorphism instead: mu_1 = id, mu_2 = inversion.
    action = ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 4, 3, 2, 1), (0, 1, 2, 3, 4))
    w = rb_module_witness(hop5, z5, tuple(z5.elements()), action)
    assert w[0] == "action-anti-homomorphism"


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------


def test_cochain_vanishes_on_degenerate_tuples():
    m = module_zx("Z3", "Z4")
    f = Cochain.from_callable(m, 2, lambda a, b: (a + b) % 4)
    assert f((0, 2)) == 0 and f((2, 0)) == 0 and f((1, 2)) == 3
    # an argument outside H must not alias another entry of the value vector
    for args in ((1, 3), (3, 1), (-1, 1)):
        with pytest.raises(KeyError):
            f(args)


def test_cochain_serialization_roundtrip():
    m = module_zx("Z3", "Z4")
    f = Cochain.from_vector(m, 2, (1, 0, 3, 2))
    back = Cochain.from_dict(m, f.to_dict())
    assert back == f
    assert all(v != 0 for v in f.to_dict()["values"].values())


@pytest.mark.parametrize("data, message", [
    ({"arity": 2, "values": {"(1,1)": 9}}, "cochain value 9 at key '(1,1)' is outside 0..3"),
    ({"arity": 1, "values": {"(1)": -1}}, "cochain value -1 at key '(1)' is outside 0..3"),
    ({"arity": 1, "values": {"(5)": 1}}, "cochain key '(5)' has an entry outside 1..1"),
    ({"arity": 1, "values": {"(-1)": 1}}, "cochain key '(-1)' has an entry outside 1..1"),
    ({"arity": 1, "values": {"(1)": 2.7}},
     "cochain value at key '(1)' is 2.7, not an integer element index"),
    ({"arity": 1, "values": {"(1)": True}},
     "cochain value at key '(1)' is true, not an integer element index"),
])
def test_cochain_from_dict_rejects_entries_outside_h_and_i(data, message):
    with pytest.raises(ValueError) as err:
        Cochain.from_dict(module_zx("Z2", "Z4"), data)
    assert str(err.value) == message


def test_cochain_arithmetic_requires_the_same_groups():
    # same |H| but a different I: Z4 against Z2xZ2, and Z2 against Z3
    for a, b in (("Z4", "Z2xZ2"), ("Z2", "Z3")):
        f = Cochain.from_vector(module_zx("Z2", a), 1, [1])
        g = Cochain.from_vector(module_zx("Z2", b), 1, [1])
        with pytest.raises(ValueError, match="cochain mismatch"):
            f.add(g)
        with pytest.raises(ValueError, match="cochain mismatch"):
            g.sub(f)
    f = Cochain.from_vector(module_zx("Z2", "Z4"), 1, [3])
    assert f.add(Cochain.from_vector(module_zx("Z2", "Z4"), 1, [3])).values == {(1,): 2}
    with pytest.raises(ValueError, match="cochain mismatch"):
        f.add(Cochain.from_vector(module_zx("Z3", "Z4"), 1, [3, 3]))


def test_enumerate_cochains_count_and_budget():
    m = module_zx("Z3", "Z2")
    assert sum(1 for _ in enumerate_cochains(m, 2)) == 2**4
    with pytest.raises(BudgetError):
        list(enumerate_cochains(m, 2, budget=3))


# ---------------------------------------------------------------------------
# coboundaries
# ---------------------------------------------------------------------------


def test_delta_of_zero_is_zero():
    m = module_zx("Z3", "Z4")
    for op in (delta, partial, partial_circ):
        assert op(Cochain.zero(m, 1)).is_zero()
        assert op(Cochain.zero(m, 2)).is_zero()


def test_delta1_formula_trivial_action():
    m = module_zx("Z3", "Z4")
    f = Cochain.from_vector(m, 1, (1, 2))
    df = delta(f)
    h = m.H
    for h1 in range(1, 3):
        for h2 in range(1, 3):
            expect = (f((h2,)) - f((h.table[h1][h2],)) + f((h1,))) % 4
            assert df((h1, h2)) == expect


def test_partial_equals_delta_when_rh_trivial_and_action_trivial():
    m = module_zx("Z3", "Z4")  # R_H = 0 and trivial action
    for f in enumerate_cochains(m, 1):
        assert partial(f) == delta(f)
    f = Cochain.from_vector(m, 2, (1, 2, 3, 0))
    assert partial(f) == delta(f)


def test_circle_products_used_by_partial():
    # R_H = id on Z4: h1 o h2 = h1 + h2 still, but the action twist differs
    z4 = make_group("Z4")
    hop = RotaBaxterOperator(z4, tuple(z4.elements()))
    m = RBModule(hop, make_group("Z3"), (0, 1, 2), trivial_action(z4, make_group("Z3")))
    assert m.circle.table == z4.table


def dd_is_zero(mapper, f):
    return mapper(mapper(f)).is_zero()


@pytest.mark.parametrize("hname,iname", [("Z2", "Z2"), ("Z2", "Z3"), ("Z2", "Z4"), ("Z3", "Z3"), ("Z3", "Z4")])
def test_dd_zero_exhaustive_small(hname, iname):
    for m in all_modules(hname, iname):
        for f in enumerate_cochains(m, 1):
            assert dd_is_zero(delta, f)
            assert dd_is_zero(partial, f)
            assert dd_is_zero(partial_circ, f)
        for f in itertools.islice(enumerate_cochains(m, 2), 40):
            assert dd_is_zero(delta, f)
            assert dd_is_zero(partial, f)


def test_naturality_bar_and_ri():
    for m in all_modules("Z2", "Z4", require_commuting=True):
        for f in enumerate_cochains(m, 1):
            assert bar(delta(f)) == partial(bar(f))
            assert ri_after(partial(f)) == partial(ri_after(f))
            assert ri_after(partial_circ(f)) == partial(ri_after(f))


def test_partial_circ_rejects_bad_sigma():
    m = module_zx("Z2", "Z3")  # R_H = 0, R_I = id, trivial action
    f = Cochain.from_vector(m, 1, (1,))
    sigma_not_auto = ((0, 1, 2), (0, 0, 0))
    with pytest.raises(ValueError, match="automorphism"):
        partial_circ(f, sigma_not_auto)
    sigma_bad_intertwine = ((0, 1, 2), (0, 2, 1))
    with pytest.raises(ValueError, match="intertwining"):
        partial_circ(f, sigma_bad_intertwine)


def test_default_circle_action_is_partial_where_it_does_not_intertwine():
    # mu_{R_H} is an anti-homomorphism of (H, o) into Aut(I) on every module;
    # where mu_{R_H(h)} does not commute with R_I an explicit sigma = mu_{R_H}
    # fails the intertwining, and the default partial_circ is still partial
    modules = all_modules("Z2", "Z2xZ2")
    refused = []
    for m in modules:
        assert action_witness(m.I, mu_twist_action(m), m.circle.table) is None
        try:
            validate_circle_action(m, mu_twist_action(m))
        except ValueError as e:
            assert "intertwining" in str(e)
            refused.append(m)
    assert len(modules) == 68 and len(refused) == 6
    assert not any(m.mu_commutes_with_ri() for m in refused)
    for m in refused:
        for arity in (1, 2, 3):
            for f in enumerate_cochains(m, arity):
                assert partial_circ(f) == partial(f)


def test_partial_circ_trivial_sigma_with_zero_ri():
    h, z3 = make_group("Z2"), make_group("Z3")
    hop = RotaBaxterOperator(h, (0, 1))
    m = RBModule(hop, z3, (0, 0, 0), trivial_action(h, z3))
    f = Cochain.from_vector(m, 1, (2,))
    sigma = trivial_action(h, z3)
    out = partial_circ(f, sigma)
    circ = m.circle.table
    for h1 in range(1, 2):
        for h2 in range(1, 2):
            expect = m.isub(m.iadd(f((h2,)), f((h1,))), f((circ[h1][h2],)))
            assert out((h1, h2)) == expect


# ---------------------------------------------------------------------------
# combined complexes
# ---------------------------------------------------------------------------


def test_delta_rb_zero_maps_to_zero():
    m = module_zx("Z2", "Z4")
    out = delta_rb((Cochain.zero(m, 1), Cochain.zero(m, 1)))
    assert all(c.is_zero() for c in out)


@pytest.mark.parametrize("hname,iname", [("Z2", "Z2"), ("Z2", "Z4"), ("Z2", "Z3")])
def test_delta_rb_squares_to_zero_exhaustive(hname, iname):
    for m in all_modules(hname, iname, require_commuting=True):
        for f in enumerate_cochains(m, 1):
            for g in enumerate_cochains(m, 1):
                out = delta_rb(delta_rb((f, g)))
                assert all(c.is_zero() for c in out)
                outp = partial_rb(partial_rb((f, g)))
                assert all(c.is_zero() for c in outp)


def test_delta_rb_degree_two_on_basis():
    m = module_zx("Z3", "Z4")
    keys2 = list(itertools.product(range(1, 3), repeat=2))
    for slot in range(3):
        for pos in range(len(keys2) if slot != 1 else 2):
            f = Cochain.zero(m, 2)
            g = Cochain.zero(m, 1)
            hh = Cochain.zero(m, 2)
            if slot == 0:
                f = Cochain.from_vector(m, 2, tuple(1 if i == pos else 0 for i in range(4)))
            elif slot == 1:
                g = Cochain.from_vector(m, 1, tuple(1 if i == pos else 0 for i in range(2)))
            else:
                hh = Cochain.from_vector(m, 2, tuple(1 if i == pos else 0 for i in range(4)))
            out = delta_rb(delta_rb((f, g, hh)))
            assert all(c.is_zero() for c in out)
            outp = partial_rb(partial_rb((f, g, hh)))
            assert all(c.is_zero() for c in outp)


def test_plus_sign_middle_variant_breaks_the_complex():
    # middle term "bar f + R_I g" (as displayed) leaves a residual 2 R_I d g
    m = module_zx("Z2", "Z3")  # R_H = 0, R_I = id, trivial action

    def delta_rb_plus(pair):
        f, g = pair
        return (delta(f), bar(f).add(ri_after(g)), partial(g))

    g = Cochain.from_vector(m, 1, (1,))
    f = Cochain.zero(m, 1)
    first = delta_rb_plus((f, g))
    middle = partial(first[1]).add(bar(first[0]).sub(ri_after(first[2])).neg())
    assert not middle.is_zero()  # the documented sign fix is necessary


def test_delta_rb_requires_commuting_mu():
    h, z4 = make_group("Z2"), make_group("Z4")
    hop = RotaBaxterOperator(h, (0, 0))
    inversion = ((0, 1, 2, 3), (0, 3, 2, 1))
    m = RBModule(hop, z4, (0, 2, 0, 2), inversion)
    if not m.mu_commutes_with_ri():
        with pytest.raises(ValueError, match="commute"):
            delta_rb((Cochain.zero(m, 1), Cochain.zero(m, 1)))


# ---------------------------------------------------------------------------
# phi maps and the total complex
# ---------------------------------------------------------------------------


def test_phi1_examples():
    m = module_zx("Z2", "Z4")
    assert phi1(Cochain.zero(m, 1)).is_zero()
    # R_H = e, R_I = id, trivial action: Phi1 = identity on cochains
    for theta in enumerate_cochains(m, 1):
        assert phi1(theta) == theta
    # central case with R_H = id on Z2
    h = make_group("Z2")
    hop = RotaBaxterOperator(h, (0, 1))
    m2 = RBModule(hop, make_group("Z4"), (0, 3, 2, 1), trivial_action(h, make_group("Z4")))
    for theta in enumerate_cochains(m2, 1):
        expect = Cochain.from_callable(
            m2, 1, lambda hh: m2.isub(m2.ri[theta((hh,))], theta((m2.rh[hh],)))
        )
        assert phi1(theta) == expect


def test_phi2_zero_and_central_reduction():
    m = module_zx("Z2", "Z4")
    assert phi2(Cochain.zero(m, 2)).is_zero()
    h = m.H
    for f in enumerate_cochains(m, 2):
        got = phi2(f)
        for h1 in range(1, 2):
            for h2 in range(1, 2):
                r1 = m.rh[h1]
                r1i = h.inverses[r1]
                four = m.iadd(
                    m.iadd(f((h.table[h1][r1], h.table[h2][r1i])), f((h1, r1))),
                    m.isub(f((h2, r1i)), f((r1, r1i))),
                )
                expect = m.isub(m.ri[four], f((m.rh[h1], m.rh[h2])))
                assert got((h1, h2)) == expect


@pytest.mark.parametrize("hname,iname", [("Z2", "Z3"), ("Z2", "Z4"), ("Z3", "Z3")])
def test_central_square_phi_commutes(hname, iname):
    # d1 Phi1 = Phi2 delta1 for trivial actions, all (R_H, R_I) choices
    h, igroup = make_group(hname), make_group(iname)
    for hop in [RotaBaxterOperator(h, f.images) for f in endomorphisms(h)]:
        for ri in [f.images for f in endomorphisms(igroup)]:
            m = RBModule(hop, igroup, ri, trivial_action(h, igroup))
            for theta in enumerate_cochains(m, 1):
                assert partial(phi1(theta)) == phi2(delta(theta))


def test_d1_d2_composition_zero():
    for m in all_modules("Z2", "Z4"):
        for theta in enumerate_cochains(m, 1):
            a, b = d2_rbe(d1_rbe(theta))
            assert a.is_zero() and b.is_zero()


def test_d1_zero_and_noncocycle_witness():
    m = module_zx("Z2", "Z2")
    out = d1_rbe(Cochain.zero(m, 1))
    assert out.tau.is_zero() and out.g.is_zero()
    # a pair with d2 != 0 exists on (Z2, Z2, R_H=0, R_I=id)
    bad = [
        p
        for tau in enumerate_cochains(m, 2)
        for g in enumerate_cochains(m, 1)
        if not is_two_cocycle(m, (p := CocyclePair(tau, g)))
    ]
    assert bad
    a, b = d2_rbe(bad[0])
    assert not (a.is_zero() and b.is_zero())


# ---------------------------------------------------------------------------
# Z1, Z2, B2, H2
# ---------------------------------------------------------------------------


def test_z1_satisfies_both_displayed_conditions():
    for m in all_modules("Z2", "Z4"):
        for lam in z1_rbe(m):
            for h1 in m.H.elements():
                for h2 in m.H.elements():
                    assert lam((m.H.table[h1][h2],)) == m.iadd(
                        lam((h2,)), m.act(h2, lam((h1,)))
                    )
                assert lam((m.rh[h1],)) == m.ri[m.act(m.rh[h1], lam((h1,)))]


def test_h2_trivial_module():
    m = module_zx("Z1", "Z2")
    res = h2_rbe(m)
    assert res.order_z2 == 1 and res.order_b2 == 1 and res.order_h2 == 1


def test_b2_subset_z2_everywhere():
    for m in all_modules("Z2", "Z4") + all_modules("Z2", "Z3"):
        zkeys = {p.key() for p in z2_rbe(m)}
        for b in b2_rbe(m):
            assert b.key() in zkeys


def test_h2_regression_z2_z2():
    # frozen by brute force: H=Z2 (R_H=0), I=Z2 (R_I=id), trivial action;
    # beta(1,1) = -tau(1,1), so Z2 = {tau = 0} and B2 = {(0, u)}
    m = module_zx("Z2", "Z2")
    res = h2_rbe(m)
    assert (res.order_z2, res.order_b2, res.order_h2) == (2, 2, 1)
    assert sorted(p.key() for p in z2_rbe(m)) == [(0, 0), (0, 1)]
    # with R_I = 0 instead the picture opens up: frozen as well
    m0 = module_zx("Z2", "Z2", ri=(0, 0))
    res0 = h2_rbe(m0)
    assert (res0.order_z2, res0.order_b2, res0.order_h2) == (4, 1, 4)


@pytest.mark.parametrize("hname,iname", ORACLE_PAIRS)
def test_vector_scans_match_cochain_oracles(hname, iname):
    for m in all_modules(hname, iname):
        assert [c.key() for c in z1_rbe(m)] == [c.key() for c in brute_force_z1(m)]
        z2 = z2_rbe(m)
        assert [p.key() for p in z2] == [p.key() for p in brute_force_z2(m)]
        assert [p.key() for p in b2_rbe(m)] == [p.key() for p in brute_force_b2(m)]
        got, want = h2_rbe(m), brute_force_h2(m)
        assert [p.key() for p in got.representatives] == [p.key() for p in want.representatives]
        for p in z2:
            assert got.class_of(p).key() == want.class_of(p).key()


KERNEL_PAIRS = ORACLE_PAIRS + [
    ("Z2", "Z8"), ("Z2", "Z2xZ4"), ("Z3", "Z6"), ("Z3", "Z4"), ("Z5", "Z2"),
]


@pytest.mark.parametrize("hname,iname", KERNEL_PAIRS)
def test_kernels_match_the_scans(hname, iname):
    for m in all_modules(hname, iname):
        z1, b2 = scan_d1(m)
        assert [c.key() for c in z1_rbe(m)] == z1
        assert [p.key() for p in b2_rbe(m)] == b2
        z2 = z2_rbe(m)
        assert [p.key() for p in z2] == [p.key() for p in scan_z2(m)]
        got, want = h2_rbe(m), scan_h2(m)
        assert [p.key() for p in got.representatives] == [p.key() for p in want.representatives]
        for p in z2:
            assert got.class_of(p).key() == want.class_of(p).key()


@pytest.mark.parametrize("hname,iname", ORACLE_PAIRS)
def test_b2_preimages_are_sent_onto_their_members(hname, iname):
    # the one d1 compile of a Wells report lists B2 with a preimage per member
    for m in all_modules(hname, iname):
        h2 = h2_rbe(m)
        assert list(h2._d1_preimages) == [p.key() for p in b2_rbe(m)]
        for key, theta in h2._d1_preimages.items():
            assert d1_rbe(Cochain.from_vector(m, 1, theta)).key() == key


def _broken_kernel(kind):
    """cohomology._kernel (of d2) broken one way."""
    def kernel(add, neg, rows, gens):
        kept, index = _kernel(add, neg, rows, gens)
        if kind == "drops":
            return kept[1:], index
        # "keeps": a generator of the domain outside the kernel
        return kept + [next(u for u in gens if any(_apply(add, r, u) for r in rows))], index
    return kernel


def _broken_walk(kind):
    """cohomology._grow broken one way in the walk of d1, the one growing an
    image of value vectors with nonempty preimages: its Schreier element
    dropped (0), kept as the generator itself, or doubled, which Z1 holds."""
    grow = cohomology._grow

    def walk(image, plus, add, neg, s, v):
        k = grow(image, plus, add, neg, s, v)
        if not (s and isinstance(v, tuple)):
            return k
        return {"drops": (0,) * len(k), "keeps": s, "hides": _vadd(add, k, k)}[kind]
    return walk


@pytest.mark.parametrize("kind,listing,message", [
    ("drops", z2_rbe, r"\|Z2\| times the index of the kernel"),
    ("drops", z1_rbe, r"\|Z1\| times \|B2\| is not \|TC\^1\|"),
    ("keeps", z2_rbe, "a listed Z2 vector is not sent to 0"),
    ("keeps", b2_rbe, "a listed Z1 vector is not sent to 0"),
    ("hides", z1_rbe, r"\|Z1\| times \|B2\| is not \|TC\^1\|"),
])
def test_kernel_guards_catch_a_wrong_kernel(kind, listing, message, monkeypatch):
    # Z2 acting trivially on Z4 with R_I = 0: Z1, Z2 and B2 are all proper
    # and nontrivial, and the kernel's first generator is not redundant.
    # A doubled Schreier element hides in Z1 only where Z1 has order 4:
    # Z2 acting by inversion on Z4 with R_H = id and R_I = -1 has Z1 = Z4.
    m = module_zx("Z2", "Z4", ri=(0, 0, 0, 0))
    assert 1 < len(z1_rbe(m)) < 4 and 1 < len(b2_rbe(m)) < len(z2_rbe(m)) < 4 ** 2
    if kind == "hides":
        m = module_zx("Z2", "Z4", rh=(0, 1), ri=(0, 3, 2, 1), action=((0, 1, 2, 3), (0, 3, 2, 1)))
        assert len(z1_rbe(m)) == 4
    if listing is z2_rbe:
        monkeypatch.setattr(cohomology, "_kernel", _broken_kernel(kind))
    else:
        monkeypatch.setattr(cohomology, "_grow", _broken_walk(kind))
    with pytest.raises(AssertionError, match=message):
        listing(m)


@pytest.mark.parametrize("hname,iname", ORACLE_PAIRS)
def test_compile_at_generators_matches_element_probe(hname, iname):
    for m in all_modules(hname, iname):
        k1 = m.H.order - 1
        for width, fn in ((k1, _d1_map(m)), (k1 * k1 + k1, _d2_map(m))):
            calls = []

            def counted(v, fn=fn):
                calls.append(v)
                return fn(v)

            assert _compile(m, width, counted) == element_probe_compile(m, width, fn)
            # one probe for the output length, then one per coordinate and generator
            assert len(calls) == 1 + width * len(_greedy_generators(m.I.table))


def _subgroups(add):
    """Every subgroup of the group with addition table add, as index sets."""
    found = {frozenset([0])}
    todo = list(found)
    while todo:
        s = todo.pop()
        for x in range(len(add)):
            if x in s:
                continue
            t, coset = set(s), {add[y][x] for y in s}
            while not coset <= t:  # the cosets s + kx, until they return to s
                t |= coset
                coset = {add[y][x] for y in coset}
            if (t := frozenset(t)) not in found:
                found.add(t)
                todo.append(t)
    return found


def _closure_verdict(check, add, keys):
    try:
        check(add, keys, "S")
    except AssertionError as err:
        return str(err)
    return None


@pytest.mark.parametrize("iname", ["Z2", "Z3", "Z4", "Z2xZ2"])
def test_closure_by_generators_matches_pairwise_oracle(iname):
    i = make_group(iname)
    rng = random.Random(iname)
    assert _closure_verdict(_verify_closed, i.table, []) is None
    assert _closure_verdict(pairwise_verify_closed, i.table, []) is None
    for k in (1, 2, 3):
        vectors = list(itertools.product(i.elements(), repeat=k))
        add = [[vectors.index(tuple(i.table[x][y] for x, y in zip(a, b))) for b in vectors]
               for a in vectors]
        cases = []
        for sub in _subgroups(add):
            members = sorted(vectors[x] for x in sub)
            outside = [v for v in vectors if v not in members]
            cases += [members, members[:-1], members[1:]]
            if outside:
                cases.append(members + outside[:1])
        for _ in range(200):
            subset = rng.sample(vectors, rng.randint(1, len(vectors)))
            zero = (0,) * k
            cases += [subset, [v for v in subset if v != zero], [zero] + subset]
        verdicts = [(_closure_verdict(_verify_closed, i.table, keys),
                     _closure_verdict(pairwise_verify_closed, i.table, keys)) for keys in cases]
        assert [got for got, _ in verdicts] == [want for _, want in verdicts]
        assert {want for _, want in verdicts} == {None, "S is not closed under addition"}


@pytest.mark.parametrize("iname", ["Z2", "Z3", "Z4", "Z2xZ2", "Z6"])
def test_coset_generators_match_the_general_routine(iname):
    # the abelian helper lists the greedy generators _generated finds under
    # vector addition, and their span
    i = make_group(iname)
    rng = random.Random(iname)
    for k in (1, 2, 3):
        vectors = list(itertools.product(i.elements(), repeat=k))
        zero = vectors[0]

        def vadd(a, b):
            return tuple(i.table[x][y] for x, y in zip(a, b))

        for _ in range(100):
            members = [rng.choice(vectors) for _ in range(rng.randint(1, 6))]
            want, span, _ = _generated(members, vadd, zero)
            gens, got = _coset_generators(i.table, members, k)
            assert gens == want and got == sorted(span)


def test_scan_budget_refusals_match_oracles():
    m = module_zx("Z3", "Z2")
    for scan, oracle in ((z1_rbe, brute_force_z1), (z2_rbe, brute_force_z2),
                         (b2_rbe, brute_force_b2)):
        with pytest.raises(BudgetError) as got:
            scan(m, budget=3)
        with pytest.raises(BudgetError) as want:
            oracle(m, budget=3)
        assert str(got.value) == str(want.value)


def test_tc1_refusal_names_its_size():
    m = module_zx("Z3", "Z2")
    for scan in (z1_rbe, b2_rbe):
        with pytest.raises(BudgetError) as err:
            scan(m, budget=1)
        assert str(err.value) == "TC^1 space of size 4 exceeds budget 1"


def test_h2_budget_and_membership_beyond_budget():
    m = module_zx("Z2", "Z4")
    with pytest.raises(BudgetError) as err:
        z2_rbe(m, budget=3)
    assert str(err.value) == ("TC^2 space of size 16 exceeds budget 3; "
                              "membership predicates still work at this size")
    assert (err.value.stage, err.value.size) == ("TC^2", 16)
    # membership still works regardless of the budget
    assert is_two_cocycle(m, CocyclePair.zero(m))


def test_class_of_rejects_non_cocycles():
    m = module_zx("Z2", "Z2")
    res = h2_rbe(m)
    bad = CocyclePair(Cochain.from_vector(m, 2, (1,)), Cochain.from_vector(m, 1, (1,)))
    if not is_two_cocycle(m, bad):
        with pytest.raises(ValueError):
            res.class_of(bad)


def test_pair_serialization_roundtrip():
    m = module_zx("Z2", "Z4")
    p = CocyclePair(Cochain.from_vector(m, 2, (2,)), Cochain.from_vector(m, 1, (1,)))
    assert CocyclePair.from_dict(m, p.to_dict()).key() == p.key()


# ---------------------------------------------------------------------------
# randomized larger instance
# ---------------------------------------------------------------------------


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3))),
       st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(9))))
def test_dd_zero_randomized_h4(gvec, fvec):
    m = module_zx("Z4", "Z4")
    g = Cochain.from_vector(m, 1, gvec)
    f = Cochain.from_vector(m, 2, fvec)
    assert delta(delta(g)).is_zero()
    assert partial(partial(g)).is_zero()
    assert delta(delta(f)).is_zero()
    a, b = d2_rbe(d1_rbe(g))
    assert a.is_zero() and b.is_zero()
    out = delta_rb(delta_rb((g, g)))
    assert all(c.is_zero() for c in out)


def discriminating_module():
    """H = Z3 with R_H = id acting on Z2xZ2 through a 3-cycle: the only desk
    instance family where the twist subscript of phi2 is nontrivial, so the
    bracketing of the four-term sum actually matters."""
    from rbgroups.groups import automorphisms

    z3, v4 = make_group("Z3"), make_group("Z2xZ2")
    identity = tuple(v4.elements())

    def order(f):
        """The order of an automorphism table, by composing it with itself."""
        x, k = f, 1
        while x != identity:
            x = tuple(f[y] for y in x)
            k += 1
        return k

    sigma = next(f.images for f in automorphisms(v4).elements if order(f.images) == 3)
    sigma2 = tuple(sigma[sigma[y]] for y in v4.elements())
    action = (tuple(v4.elements()), sigma, sigma2)
    hop = RotaBaxterOperator(z3, (0, 1, 2))
    return RBModule(hop, v4, tuple(v4.elements()), action)


def test_phi2_whole_sum_twist_matches_construction():
    from rbgroups.groups import FiniteGroup, group_table_witness
    from rbgroups.operators import rb_witness

    m = discriminating_module()

    def built_ok(pair):
        ni = m.I.order
        n = m.H.order * ni
        tab = [[0] * n for _ in range(n)]
        for h1 in m.H.elements():
            for y1 in m.I.elements():
                for h2 in m.H.elements():
                    for y2 in m.I.elements():
                        yy = m.I.table[m.I.table[pair.tau((h1, h2))][m.act(h2, y1)]][y2]
                        tab[h1 * ni + y1][h2 * ni + y2] = m.H.table[h1][h2] * ni + yy
        if group_table_witness(tab) is not None:
            return False
        e = FiniteGroup(tab, check=False)
        rim = tuple(
            m.rh[h] * ni + m.I.table[pair.g((h,))][m.ri[m.act(m.rh[h], y)]]
            for h in m.H.elements()
            for y in m.I.elements()
        )
        return rb_witness(e, rim) is None

    formula = set()
    constructive = set()
    for tau in enumerate_cochains(m, 2):
        if not delta(tau).is_zero():
            continue
        for g in enumerate_cochains(m, 1):
            pair = CocyclePair(tau, g)
            if is_two_cocycle(m, pair):
                formula.add(pair.key())
            if built_ok(pair):
                constructive.add(pair.key())
    assert formula == constructive
    assert len(formula) == 16  # frozen; first-term-only twisting keeps just 4


# ---------------------------------------------------------------------------
# index stencils against the closure oracles
# ---------------------------------------------------------------------------


def circle_actions(m):
    """Every circle action sigma that partial_circ accepts on m."""
    out = []
    for sigma in anti_actions(m.circle, m.I):
        try:
            validate_circle_action(m, sigma)
        except ValueError:
            continue
        out.append(sigma)
    return out


def check_stencils_against_closures(m, rng):
    """The stencil maps equal the closure oracles on seeded cochains of
    arities 1-3; returns how many (nontrivial R_H, non-default sigma) and
    (nontrivial phi2 twist) cases it checked."""
    k1, identity = m.H.order - 1, tuple(m.I.elements())
    sigmas = circle_actions(m)
    other_sigma = twisted = 0
    for arity in (1, 2, 3):
        for _ in range(4):
            f = Cochain(m, arity, [rng.randrange(m.I.order) for _ in range(k1 ** arity)])
            assert delta(f) == closure_delta(f)
            assert partial(f) == partial_circ(f) == closure_partial(f)
            for sigma in sigmas:
                assert partial_circ(f, sigma) == closure_partial(f, sigma)
                other_sigma += any(m.rh) and sigma != mu_twist_action(m)
            if arity == 1:
                assert phi1(f) == closure_phi1(f)
            if arity == 2:
                assert phi2(f) == closure_phi2(f)
                twisted += any(m.action[m.H.table[m.rh[a]][m.rh[b]]] != identity
                               for a in range(1, m.H.order) for b in range(1, m.H.order))
                g = Cochain(m, 1, [rng.randrange(m.I.order) for _ in range(k1)])
                pair = CocyclePair(f, g)
                assert d2_rbe(pair) == closure_d2_rbe(pair)
    return other_sigma, twisted


@pytest.mark.parametrize("hname,iname", ORACLE_PAIRS)
def test_stencil_maps_match_closure_oracles(hname, iname):
    rng = random.Random(f"{hname} on {iname}")
    for m in all_modules(hname, iname):
        check_stencils_against_closures(m, rng)


def test_stencil_maps_match_closure_oracles_on_twisted_instances():
    # Z2 on Z2xZ2 has non-default circle actions with R_H = id; the
    # 3-cycle module has a nontrivial phi2 twist subscript
    rng = random.Random(17)
    other_sigma = sum(check_stencils_against_closures(m, rng)[0]
                      for m in all_modules("Z2", "Z2xZ2"))
    assert other_sigma > 0
    assert check_stencils_against_closures(discriminating_module(), rng)[1] > 0


def _plain(x) -> bool:
    return type(x) is int or (type(x) is tuple and all(map(_plain, x)))


def test_stencil_cache_keys_hold_only_tables_tuples_and_ints(monkeypatch):
    seen = []
    for name in ("_coboundary_stencil", "_phi2_stencil"):
        def record(*key, built=getattr(cohomology, name)):
            seen.append(key)
            return built(*key)

        monkeypatch.setattr(cohomology, name, record)
    m = discriminating_module()
    h2_rbe(m)
    partial_circ(Cochain.zero(m, 3), mu_twist_action(m))
    assert {len(key) for key in seen} == {2, 3}  # both stencils were built
    assert all(_plain(key) for key in seen)


def test_stencil_caches_do_not_grow_per_module():
    stencils = (cohomology._coboundary_stencil, cohomology._phi2_stencil)
    for built in stencils:
        built.cache_clear()
    m = discriminating_module()
    h2_rbe(m)
    sizes = [built.cache_info().currsize for built in stencils]
    assert all(sizes)
    same = RBModule(m.hop, m.I, m.ri, m.action)  # a new module on the same tables
    assert [p.key() for p in h2_rbe(same).representatives] == [
        p.key() for p in h2_rbe(m).representatives]
    assert [built.cache_info().currsize for built in stencils] == sizes
