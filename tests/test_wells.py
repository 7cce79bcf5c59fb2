import json

import pytest

from conftest import FIXTURES, all_modules, all_pairs_wells_report, all_pairs_z1_iso

from rbgroups.groups import GroupMap, automorphisms, make_group
from rbgroups.operators import (
    RotaBaxterOperator,
    load_operator,
    trivial_operator,
)
from rbgroups.cohomology import (
    CocyclePair,
    RBModule,
    b2_rbe,
    h2_rbe,
    trivial_action,
    z1_rbe,
    z2_rbe,
)
from rbgroups.extensions import build_abelian_extension, recovered_action
from rbgroups import wells
from rbgroups.wells import (
    act_on_pair,
    aut_HI,
    aut_I,
    c_mu,
    check_wells_exactness,
    compose_pairs,
    eta,
    gamma_parts,
    in_c_mu,
    rb_automorphisms,
    rho,
    twist_extension,
    wells_map,
    z1_iso_check,
    zeta,
)


def fixture_module():
    """H = Z2 (R_H = 0), I = Z4 (R_I = 0), trivial action: H2 has order 4."""
    h, z4 = make_group("Z2"), make_group("Z4")
    hop = RotaBaxterOperator(h, (0, 0))
    return RBModule(hop, z4, (0, 0, 0, 0), trivial_action(h, z4))


def test_rb_automorphisms_trivial_operator(s3):
    assert len(rb_automorphisms(s3, trivial_operator(s3))) == 6


def test_rb_automorphisms_identity_operator():
    z4 = make_group("Z4")
    op = RotaBaxterOperator(z4, tuple(z4.elements()))
    assert len(rb_automorphisms(z4, op)) == 2


def test_rb_automorphisms_s3_r4_filter(s3):
    r4 = load_operator(FIXTURES / "s3" / "R4.json")
    got = rb_automorphisms(s3, r4)
    auts = automorphisms(s3)
    brute = [
        f
        for f in auts.elements
        if all(f.images[r4.images[x]] == r4.images[f.images[x]] for x in s3.elements())
    ]
    assert [f.images for f in got] == [f.images for f in brute]
    assert 1 <= len(got) < 6


def test_aut_I_and_parts():
    m = fixture_module()
    ext = build_abelian_extension(m, CocyclePair.zero(m))
    for gamma in aut_I(ext):
        gh, gi = gamma_parts(ext, gamma)
        assert in_c_mu(m, gh, gi)
    # gamma_H is independent of the chosen st-section
    from rbgroups.extensions import st_sections

    for gamma in aut_I(ext):
        seen = set()
        for s in st_sections(ext):
            gh = tuple(
                ext.project.images[gamma.images[s.images[h]]] for h in m.H.elements()
            )
            seen.add(gh)
        assert len(seen) == 1


def test_aut_HI_is_kernel_of_rho():
    m = fixture_module()
    ext = build_abelian_extension(m, CocyclePair.zero(m))
    idh = tuple(m.H.elements())
    idi = tuple(m.I.elements())
    kernel = {
        gamma.images
        for gamma, gh, gi in rho(ext)
        if gh.images == idh and gi.images == idi
    }
    assert kernel == {f.images for f in aut_HI(ext)}


def test_c_mu_trivial_action_is_full_product():
    m = fixture_module()
    ah = rb_automorphisms(m.H, m.hop)
    ai = rb_automorphisms(m.I, RotaBaxterOperator(m.I, m.ri))
    pairs = c_mu(m)
    assert len(pairs) == len(ah) * len(ai)
    ident = (tuple(m.H.elements()), tuple(m.I.elements()))
    assert any((p.images, q.images) == ident for p, q in pairs)


def test_c_mu_nontrivial_action_membership():
    h, z4 = make_group("Z2"), make_group("Z4")
    hop = RotaBaxterOperator(h, (0, 0))
    inversion = ((0, 1, 2, 3), (0, 3, 2, 1))
    m = RBModule(hop, z4, (0, 0, 0, 0), inversion)
    pairs = c_mu(m)
    # psi^-1 mu_{phi(h)} psi = mu_h: inversion commutes with both Z4
    # automorphisms, and phi must fix the single nontrivial element of H
    assert len(pairs) == 2
    for phi, psi in pairs:
        assert phi.images == (0, 1)


def test_act_on_pair_identity_and_errors():
    m = fixture_module()
    p = z2_rbe(m)[2]
    ident = (GroupMap(m.H, m.H, (0, 1)), GroupMap(m.I, m.I, (0, 1, 2, 3)))
    assert act_on_pair(m, ident, p).key() == p.key()
    bad_psi = GroupMap(m.I, m.I, (0, 3, 2, 1))
    h2, z4 = make_group("Z2"), make_group("Z4")
    hop = RotaBaxterOperator(h2, (0, 0))
    m_inv = RBModule(hop, z4, (0, 0, 0, 0), ((0, 1, 2, 3), (0, 3, 2, 1)))
    phi = GroupMap(m_inv.H, m_inv.H, (0, 1))
    assert in_c_mu(m_inv, phi, bad_psi)  # inversion is compatible here
    m_asym = RBModule(
        RotaBaxterOperator(make_group("Z4"), (0, 0, 0, 0)),
        z4,
        (0, 0, 0, 0),
        ((0, 1, 2, 3), (0, 3, 2, 1), (0, 1, 2, 3), (0, 3, 2, 1)),
    )
    phi_bad = GroupMap(m_asym.H, m_asym.H, (0, 3, 2, 1))
    psi_id = GroupMap(z4, z4, (0, 1, 2, 3))
    if not in_c_mu(m_asym, phi_bad, psi_id):
        with pytest.raises(ValueError, match="C_mu"):
            act_on_pair(m_asym, (phi_bad, psi_id), z2_rbe(m_asym)[0])


def test_action_preserves_z2_and_b2():
    m = fixture_module()
    z2keys = {p.key() for p in z2_rbe(m)}
    b2keys = {p.key() for p in b2_rbe(m)}
    for c in c_mu(m):
        for p in z2_rbe(m):
            twisted = act_on_pair(m, c, p)
            assert twisted.key() in z2keys
        for b in b2_rbe(m):
            assert act_on_pair(m, c, b).key() in b2keys


def test_action_is_right_action():
    m = fixture_module()
    pairs = c_mu(m)
    for c1 in pairs:
        for c2 in pairs:
            c12 = compose_pairs(c1, c2)
            for p in z2_rbe(m)[:4]:
                lhs = act_on_pair(m, c2, act_on_pair(m, c1, p))
                rhs = act_on_pair(m, c12, p)
                assert lhs.key() == rhs.key()


def test_twist_matches_cochain_action():
    m = fixture_module()
    for p in z2_rbe(m)[:4]:
        ext = build_abelian_extension(m, p)
        for c in c_mu(m):
            twisted = twist_extension(ext, c)
            assert twisted.pair.key() == act_on_pair(m, c, p).key()
            assert recovered_action(twisted) == m.action


def test_semidirect_action_law():
    # ([E]^h)^c = ([E]^c)^(h^c) at the level of canonical class representatives
    m = fixture_module()
    h2 = h2_rbe(m)
    base = z2_rbe(m)[0]
    for c in c_mu(m):
        for h in h2.representatives:
            lhs = h2.class_of(act_on_pair(m, c, base.add(h)))
            rhs = h2.class_of(act_on_pair(m, c, base).add(act_on_pair(m, c, h)))
            assert lhs.key() == rhs.key()


def test_wells_map_identity_is_zero_class():
    m = fixture_module()
    ext = build_abelian_extension(m, z2_rbe(m)[1])
    h2 = h2_rbe(m)
    omega = wells_map(ext, h2)
    zero = h2.class_of(CocyclePair.zero(m))
    for (phi, psi), cls in omega:
        if phi.images == (0, 1) and psi.images == (0, 1, 2, 3):
            assert cls.key() == zero.key()


def test_z1_iso_both_directions():
    m = fixture_module()
    for p in [z2_rbe(m)[0], z2_rbe(m)[2]]:
        ext = build_abelian_extension(m, p)
        res = z1_iso_check(ext)
        assert res["isomorphic"]
        assert res["z1_order"] == res["autHI_order"]
        for lam in z1_rbe(m):
            f = eta(ext, lam)
            assert all(
                f.images[ext.operator.images[x]] == ext.operator.images[f.images[x]]
                for x in ext.E.elements()
            )
            assert zeta(ext, f).value_vector() == lam.value_vector()


def test_exactness_direct_and_twisted():
    m = fixture_module()
    pairs = z2_rbe(m)
    direct = next(p for p in pairs if p.is_zero())
    twisted = next(p for p in pairs if not p.tau.is_zero())
    for p in (direct, twisted):
        report = check_wells_exactness(build_abelian_extension(m, p))
        assert report["exact_at_autI"]
        assert report["exact_at_cmu"]
        assert report["omega_is_derivation"]
        assert report["witnesses"] == []
        assert report["z1_order"] == report["autHI_order"]


def test_fault_injection_breaks_the_right_joint(monkeypatch):
    m = fixture_module()
    ext = build_abelian_extension(m, z2_rbe(m)[2])
    real = wells.act_on_pair
    z2 = z2_rbe(m)
    nonzero = next(p for p in z2 if not p.is_zero())

    def corrupted(module, c, pair):
        out = real(module, c, pair)
        phi, psi = c
        if psi.images != tuple(module.I.elements()):  # corrupt one entry of omega
            return out.add(nonzero)
        return out

    monkeypatch.setattr(wells, "act_on_pair", corrupted)
    report = check_wells_exactness(ext)
    assert not (
        report["exact_at_cmu"] and report["omega_is_derivation"]
    )
    assert any(w["joint"] in ("cmu", "derivation") for w in report["witnesses"])


def test_fiber_shift_in_aut_hi_iff_derivation():
    from rbgroups.cohomology import enumerate_cochains
    from rbgroups.groups import is_homomorphism as is_hom

    m = fixture_module()
    ext = build_abelian_extension(m, z2_rbe(m)[0])
    z1_keys = {lam.value_vector() for lam in z1_rbe(m)}
    for theta in enumerate_cochains(m, 1):
        f = eta(ext, theta)
        member = is_hom(f) and all(
            f.images[ext.operator.images[x]] == ext.operator.images[f.images[x]]
            for x in ext.E.elements()
        )
        assert member == (theta.value_vector() in z1_keys)


def test_derivation_check_over_generators_matches_all_pairs():
    # the generators of C_mu decide the derivation law: the report, verdict
    # and JSON alike, equals the oracle's over every pair of C_mu
    z2g, z3, z4 = make_group("Z2"), make_group("Z3"), make_group("Z4")
    v4, z3z3 = make_group("Z2xZ2"), make_group("Z3xZ3")
    swap = (0, 2, 1, 3)  # the automorphism of Z2xZ2 exchanging the factors
    modules = [
        fixture_module(),
        RBModule(RotaBaxterOperator(z2g, (0, 1)), z4, (0, 1, 2, 3), trivial_action(z2g, z4)),
        RBModule(RotaBaxterOperator(z2g, (0, 0)), v4, (0, 0, 0, 0), trivial_action(z2g, v4)),
        RBModule(RotaBaxterOperator(z2g, (0, 0)), v4, (0, 0, 0, 0), ((0, 1, 2, 3), swap)),
    ]
    cases = [(m, pair) for m in modules for pair in (z2_rbe(m)[0], z2_rbe(m)[-1])]
    # |C_mu| = 96, generated by 5 of its pairs; the last cocycle, as the
    # split extension Z3xZ3xZ3 has 11,232 automorphisms to enumerate
    big = RBModule(trivial_operator(z3), z3z3, (0,) * 9, trivial_action(z3, z3z3))
    cases.append((big, z2_rbe(big)[-1]))
    for m, pair in cases:
        ext = build_abelian_extension(m, pair)
        got = check_wells_exactness(ext)
        assert got["omega_is_derivation"]
        want = all_pairs_wells_report(ext)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("hname,iname", [("Z2", "Z4"), ("Z2", "Z2xZ2"), ("Z3", "Z3"), ("Z2", "Z6")])
def test_z1_homomorphism_check_over_generators_matches_all_pairs(hname, iname):
    # eta(a + b) = eta(a) eta(b) over the generators of Z1 gives the verdict
    # of every pair, on the least and greatest cocycle of every module
    for m in all_modules(hname, iname):
        z1 = z1_rbe(m)
        gens = wells._sum_generators(m.I.table, z1)
        span = {(0,) * (m.H.order - 1)}
        while True:  # the sums of the generators are all of Z1
            grown = span | {tuple(m.I.table[x][y] for x, y in zip(s, g.vector))
                            for s in span for g in gens}
            if grown == span:
                break
            span = grown
        assert span == {lam.vector for lam in z1}
        assert len(gens) < len(z1) or len(z1) <= 2
        for pair in (z2_rbe(m)[0], z2_rbe(m)[-1]):
            ext = build_abelian_extension(m, pair)
            hi = aut_HI(ext)
            assert wells._z1_iso(ext, z1, hi) == all_pairs_z1_iso(ext, z1, hi)
            assert wells._z1_iso(ext, z1, hi)["isomorphic"]


def test_z1_generators_start_with_the_first_cochain():
    m = fixture_module()  # Z1 = Hom(Z2, Z4) = {0, 2}: <2> holds 0, so 0 is listed first
    z1 = z1_rbe(m)
    assert [lam.vector for lam in z1] == [(0,), (2,)]
    assert [lam.vector for lam in wells._sum_generators(m.I.table, z1)] == [(0,), (2,)]
    assert [lam.vector for lam in wells._sum_generators(m.I.table, z1[::-1])] == [(2,)]
