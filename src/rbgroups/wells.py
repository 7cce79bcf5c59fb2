"""Automorphism-group machinery for extensions: C_mu and its action on
cocycle pairs, Aut_I(E) and rho, the Wells derivation omega, the kernel
isomorphism with Z1, and exactness of 0 -> Z1 -> Aut_I(E) -> C_mu -> H2.

Lemma: every gamma in Aut_I(E) is gamma(s(h) i(y)) = s(phi h) i(psi(lambda(h)
+ y)) with (phi, psi) = gamma_parts and lambda a normalized 1-cochain, and
such a map is a Rota-Baxter automorphism iff (phi, psi) lies in C_mu and
d1(lambda) = pair - pair^(phi, psi), pair^c being act_on_pair.  Sketch:
multiplicativity reads psi mu_h = mu_{phi h} psi and, after psi^-1,
delta1(lambda) = tau - tau^c; gamma R_E = R_E gamma reads phi R_H = R_H phi,
psi R_I = R_I psi and Phi1(lambda) = g - g^c.  (pair^c - pair fails on Z3
kernels, lambda(h) outside psi on Z3 and Z2xZ2 ones.)  So Im(rho) = {c :
pair - pair^c in B2}, Ker(rho) = eta(Z1), and the gamma_(c, lambda0)
eta(lambda) list Aut_I(E) without listing Aut(E).
"""

from __future__ import annotations

import dataclasses

from .groups import (
    DEFAULT_GROUP_BOUND,
    FiniteGroup,
    GroupMap,
    _generated,
    _homomorphism_bound,
    _intertwine_witness,
    action_witness,
    automorphisms,
    compose,
)
from .cohomology import (DEFAULT_COHOMOLOGY_BUDGET, Cochain, CocyclePair, H2Result,
                         RBModule, _coset_generators, _pair, _vadd, _z1_b2,
                         h2_rbe, nondegenerate_tuples)
from .extensions import Extension
from .operators import RotaBaxterOperator


def rb_automorphisms(
    g: FiniteGroup, op: RotaBaxterOperator, bound: int = DEFAULT_GROUP_BOUND
) -> list[GroupMap]:
    """Automorphisms commuting with the operator, in canonical order."""
    return [f for f in automorphisms(g, bound=bound).elements
            if _intertwine_witness(f.images, op.images, op.images) is None]


def gamma_parts(ext: Extension, gamma: GroupMap) -> tuple[GroupMap, GroupMap]:
    """(gamma_H, gamma_I): the induced maps on H and on I.

    gamma_H(h) = project(gamma(section(h))); independent of the st-section.
    """
    m = ext.module
    gh = tuple(
        ext.project.images[gamma.images[ext.section.images[h]]] for h in m.H.elements()
    )
    gi = tuple(ext.coordinate(gamma.images[ext.include.images[y]]) for y in m.I.elements())
    return GroupMap(m.H, m.H, gh), GroupMap(m.I, m.I, gi)


def _gamma(ext: Extension, c, lam) -> tuple[int, ...]:
    """The images of gamma(s(h) i(y)) = s(phi h) i(psi(lam(h) + y)) for the key
    c = (phi, psi) and lam the values of a 1-cochain at 1, ..., |H| - 1."""
    (phi, psi), add, images = c, ext.module.I.table, [0] * ext.E.order
    for h, lh in enumerate((0, *lam)):
        for y, v in enumerate(add[lh]):
            images[ext.element(h, y)] = ext.element(phi[h], psi[v])
    return tuple(images)


def _is_lift(ext: Extension, c, images) -> bool:
    """Whether images is a Rota-Baxter automorphism of E (bijective and
    multiplicative at E's generators, commuting with R_E) that maps I into
    itself and induces the key c."""
    e, r, kernel = ext.E, ext.operator.images, set(ext.include.images)
    return (action_witness(e, [images]) is None
            and _intertwine_witness(images, r, r) is None
            and all(images[x] in kernel for x in kernel)
            and tuple(f.images for f in gamma_parts(ext, GroupMap(e, e, images))) == c)


def _lifts(ext: Extension, bound: int, preimages: dict):
    """C_mu as {key c: its twist of pair keys}, {c: pair^c}, and {c: lambda0}
    over the c whose difference pair - pair^c is d1(lambda0), so lies in B2."""
    m, base = ext.module, ext.pair.key()
    twists = {c: _twist(m, c) for c in _c_mu(m, bound)}
    _homomorphism_bound(ext.E, ext.E, bound)  # Aut_I(E) is capped as an Aut(E) build is
    moved = {c: twist(base) for c, twist in twists.items()}
    diffs = ((c, _vadd(m.I.table, base, [m.I.inverses[y] for y in v])) for c, v in moved.items())
    return twists, moved, {c: preimages[d] for c, d in diffs if d in preimages}


def rho(ext: Extension, bound: int = DEFAULT_GROUP_BOUND):
    """[(gamma, gamma_H, gamma_I)] over Aut_I(E, R_E), sorted by gamma: the
    lifts gamma_(c, lambda0 + lambda) of each c in Im(rho), lambda over Z1."""
    m, e = ext.module, ext.E
    z1, preimages = _z1_b2(m, DEFAULT_COHOMOLOGY_BUDGET)
    out = [(GroupMap(e, e, _gamma(ext, c, _vadd(m.I.table, lam0, lam))),
            GroupMap(m.H, m.H, c[0]), GroupMap(m.I, m.I, c[1]))
           for c, lam0 in _lifts(ext, bound, preimages)[2].items() for lam in z1]
    return sorted(out, key=lambda t: t[0].images)


def aut_I(ext: Extension, bound: int = DEFAULT_GROUP_BOUND) -> list[GroupMap]:
    """Rota-Baxter automorphisms of E that map the kernel copy into itself, sorted."""
    return [gamma for gamma, _, _ in rho(ext, bound)]


def aut_HI(ext: Extension, bound: int = DEFAULT_GROUP_BOUND) -> list[GroupMap]:
    """Kernel of rho: automorphisms inducing the identity on both H and I,
    refused above `bound` at H, I or E as rho's builds are."""
    e, one = ext.E, _identity_key(ext)
    return sorted((GroupMap(e, e, _gamma(ext, one, lam)) for lam in _bounded_z1(ext, bound)),
                  key=lambda f: f.images)


def _bounded_z1(ext: Extension, bound: int) -> list[tuple[int, ...]]:
    """Z1 as sorted value vectors, refused after Z1 above `bound` at H, I or E."""
    z1 = _z1_b2(ext.module, DEFAULT_COHOMOLOGY_BUDGET)[0]
    for g in (ext.module.H, ext.module.I, ext.E):
        _homomorphism_bound(g, g, bound)
    return z1


def _c_mu(module: RBModule, bound: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """C_mu as sorted keys (phi images, psi images), each checked once here."""
    aut_h = rb_automorphisms(module.H, module.hop, bound)
    aut_i = rb_automorphisms(module.I, RotaBaxterOperator(module.I, module.ri), bound)
    return sorted((phi.images, psi.images) for phi in aut_h for psi in aut_i
                  if in_c_mu(module, phi, psi))


def c_mu(module: RBModule, bound: int = DEFAULT_GROUP_BOUND) -> list[tuple[GroupMap, GroupMap]]:
    """Pairs (phi, psi) of operator-automorphisms with mu_h = psi^-1 mu_{phi(h)} psi."""
    h, i = module.H, module.I
    return [(GroupMap(h, h, phi), GroupMap(i, i, psi)) for phi, psi in _c_mu(module, bound)]


def in_c_mu(module: RBModule, phi: GroupMap, psi: GroupMap) -> bool:
    return all(_intertwine_witness(psi.images, mu, module.action[phi.images[h]]) is None
               for h, mu in enumerate(module.action))


def _twist(module: RBModule, c):
    """act_on_pair on pair keys for the key c = (phi, psi) of a member of
    C_mu: a gather at the positions of the twisted arguments, then psi^-1."""
    phi, psi = c
    index = nondegenerate_tuples(module.H.order, 2)
    positions = [index[phi[a], phi[b]] for a, b in index]
    positions += [len(index) + phi[h] - 1 for h in range(1, module.H.order)]
    psi_inv = sorted(range(len(psi)), key=psi.__getitem__)
    return lambda key: tuple(psi_inv[key[p]] for p in positions)


def act_on_pair(
    module: RBModule, c: tuple[GroupMap, GroupMap], pair: CocyclePair
) -> CocyclePair:
    """(tau, g)^(phi, psi): twist arguments by phi and values by psi^-1."""
    phi, psi = c
    if not in_c_mu(module, phi, psi):
        raise ValueError("pair (phi, psi) is not in C_mu")
    return _pair(module, _twist(module, (phi.images, psi.images))(pair.key()))


def _compose(a, b):
    """The product of keys of C_mu, (phi1 phi2, psi1 psi2) componentwise;
    cochain twisting is a right action."""
    return tuple(map(a[0].__getitem__, b[0])), tuple(map(a[1].__getitem__, b[1]))


def _pair_generators(cmu: list) -> list:
    """Each key of C_mu, in order, outside the subgroup the ones before it
    generate: a greedy generating set of the group C_mu."""
    one = (tuple(range(len(cmu[0][0]))), tuple(range(len(cmu[0][1]))))
    return _generated(cmu, _compose, one)[0]


def twist_extension(ext: Extension, c: tuple[GroupMap, GroupMap]) -> Extension:
    """The same carrier read through inclusion i psi and projection phi^-1 pi.

    Its pair, read off through the twisted section, equals act_on_pair(c,
    pair); used to cross-check the cochain-level action against the
    extension-level one.
    """
    phi, psi = c
    h, e = ext.h_rb.group, ext.E
    phi_inv = sorted(h.elements(), key=phi.images.__getitem__)
    return dataclasses.replace(
        ext,
        include=compose(ext.include, psi),
        project=GroupMap(e, h, tuple(phi_inv[ext.project.images[x]] for x in e.elements())),
        section=GroupMap(h, e, tuple(ext.section.images[phi.images[hh]] for hh in h.elements())),
    )


def wells_map(ext: Extension, h2: H2Result | None = None,
              cmu: list[tuple[GroupMap, GroupMap]] | None = None):
    """omega(E): for each c in C_mu the H2 class with [E]^c = [E]^{omega(c)}.

    Since the translation action is free and transitive on classes, this is
    the class of (pair^c - pair).
    """
    m, base = ext.module, ext.pair
    h2 = h2_rbe(m) if h2 is None else h2
    cmu = c_mu(m) if cmu is None else cmu
    return [(c, h2.class_of(act_on_pair(m, c, base).sub(base))) for c in cmu]


# ---------------------------------------------------------------------------
# Aut^{H,I}(E, R_E) ~ Z1
# ---------------------------------------------------------------------------


def _identity_key(ext: Extension):
    return tuple(ext.module.H.elements()), tuple(ext.module.I.elements())


def eta(ext: Extension, lam: Cochain) -> GroupMap:
    """The automorphism s(h) i(y) -> s(h) i(lam(h) + y), gamma_(1, lam), of a derivation."""
    return GroupMap(ext.E, ext.E, _gamma(ext, _identity_key(ext), lam.vector))


def zeta(ext: Extension, gamma: GroupMap) -> Cochain:
    """The derivation h -> kernel coordinate of s(h)^-1 gamma(s(h))."""
    e, s = ext.E, ext.section.images
    return Cochain.from_callable(
        ext.module, 1, lambda h: ext.coordinate(e.table[e.inverses[s[h]]][gamma.images[s[h]]])
    )


def z1_iso_check(ext: Extension, bound: int = DEFAULT_GROUP_BOUND) -> dict:
    """Verify eta/zeta are mutually inverse group isomorphisms Z1 ~ Aut^{H,I}."""
    return _z1_iso(ext, _bounded_z1(ext, bound))


def _z1_iso(ext: Extension, z1: list[tuple[int, ...]]) -> dict:
    """eta on Z1 (value vectors), whose images are Ker(rho), is injective, as
    zeta eta = id on Z1, and additive: for every a and each greedy generator
    b, eta(a + b) = eta(a) eta(b), so eta(a) is a product of the eta(b), each
    checked to be a Rota-Baxter automorphism of E that fixes I and induces
    the identity on H and I.  autHI_order counts the distinct images."""
    one, add, e = _identity_key(ext), ext.module.I.table, ext.E
    etas = {a: _gamma(ext, one, a) for a in z1}
    gens = _coset_generators(add, z1, ext.module.H.order - 1)[0]
    ok = (all(_is_lift(ext, one, etas[b]) for b in gens)
          and all(zeta(ext, GroupMap(e, e, f)).vector == a for a, f in etas.items())
          and all(_gamma(ext, one, _vadd(add, a, b)) == tuple(map(etas[a].__getitem__, etas[b]))
                  for a in etas for b in gens))
    return {"z1_order": len(z1), "autHI_order": len(set(etas.values())), "isomorphic": ok}


# ---------------------------------------------------------------------------
# exactness report
# ---------------------------------------------------------------------------


def _listed(keys) -> list:
    """The first three keys of C_mu, sorted, as JSON lists."""
    return [list(map(list, k)) for k in sorted(keys)[:3]]


def check_wells_exactness(ext: Extension, bound: int = DEFAULT_GROUP_BOUND,
                          budget: int = DEFAULT_COHOMOLOGY_BUDGET) -> dict:
    """Verify 0 -> Z1 -> Aut_I(E) -> C_mu -> H2 at every joint, with witnesses.

    One compile of d1 gives Z1, the B2 inside H2 and a preimage lambda0 of
    each difference in B2.  The lift gamma_(c, lambda0) of each c in Im(rho)
    and eta of each generator of Z1 are checked to be Rota-Baxter
    automorphisms of E that keep I and induce c, so each gamma_(c, lambda0)
    eta(lambda) that the lemma counts is one."""
    m = ext.module
    add, neg = m.I.table, m.I.inverses
    h2 = h2_rbe(m, budget)
    twists, moved, lifts = _lifts(ext, bound, h2._d1_preimages)
    cmu, base = list(twists), ext.pair.key()
    classes = {key: rep.key() for key, rep in h2._class_index.items()}
    minus_base = [neg[y] for y in base]
    omega = {c: classes[_vadd(add, v, minus_base)] for c, v in moved.items()}
    witnesses = []

    z1_iso = _z1_iso(ext, h2._z1)
    exact_at_autI = z1_iso["isomorphic"]
    if not exact_at_autI:
        witnesses.append({"joint": "autI", "reason": "Z1 does not match Ker(rho)"})

    bad = [c for c, lam0 in lifts.items() if not _is_lift(ext, c, _gamma(ext, c, lam0))]
    if bad:
        witnesses.append({"joint": "cmu", "reason": "a lift of Im(rho) is not in Aut_I(E)",
                          "c": _listed(bad)})

    image_rho = set(lifts)
    zero_class = classes[(0,) * len(base)]
    kernel_omega = {c for c, cls in omega.items() if cls == zero_class}
    exact_at_cmu = image_rho == kernel_omega and not bad
    if image_rho != kernel_omega:
        witnesses.append({"joint": "cmu", "reason": "Im(rho) != Ker(omega)",
                          "im_rho_only": _listed(image_rho - kernel_omega),
                          "ker_omega_only": _listed(kernel_omega - image_rho)})

    # omega(c1 c2) = omega(c1)^c2 + omega(c2) for each c2 of a generating
    # set, and every c1, gives it for every c2, by induction on word length:
    # the action is a right action by additive maps
    gens = _pair_generators(cmu)
    failed = [(c1, c2) for c1 in cmu for c2 in gens
              if omega[_compose(c1, c2)] != classes[_vadd(add, twists[c2](omega[c1]), omega[c2])]]
    witnesses += [{"joint": "derivation", "c1": list(map(list, c1)), "c2": list(map(list, c2))}
                  for c1, c2 in failed]
    return {"z1_order": z1_iso["z1_order"], "autI_order": len(lifts) * z1_iso["z1_order"],
            "autHI_order": z1_iso["autHI_order"], "cmu_order": len(cmu),
            "h2_order": h2.order_h2, "exact_at_autI": exact_at_autI,
            "exact_at_cmu": exact_at_cmu, "omega_is_derivation": not failed, "witnesses": witnesses}
