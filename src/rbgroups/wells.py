"""Automorphism-group machinery for extensions: the compatible-pair group,
the action on cocycle pairs, the Wells derivation, the kernel isomorphism
with Z1, and exactness of the resulting four-term sequence.
"""

from __future__ import annotations

import dataclasses

from .groups import (
    FiniteGroup,
    GroupMap,
    automorphisms,
    compose,
    is_homomorphism,
)
from .cohomology import (DEFAULT_COHOMOLOGY_BUDGET, Cochain, CocyclePair, H2Result,
                         RBModule, _vadd, h2_rbe, z1_rbe)
from .extensions import Extension
from .operators import RotaBaxterOperator

DEFAULT_AUT_BOUND = 64


def rb_automorphisms(
    g: FiniteGroup, op: RotaBaxterOperator, bound: int = DEFAULT_AUT_BOUND
) -> list[GroupMap]:
    """Automorphisms commuting with the operator, in canonical order."""
    auts = automorphisms(g, bound=bound)
    return [
        f
        for f in auts.elements
        if all(f.images[op.images[x]] == op.images[f.images[x]] for x in g.elements())
    ]


def aut_I(ext: Extension, bound: int = DEFAULT_AUT_BOUND) -> list[GroupMap]:
    """Rota-Baxter automorphisms of E that map the kernel copy into itself."""
    kernel = set(ext.include.images)
    return [
        f
        for f in rb_automorphisms(ext.E, ext.operator, bound)
        if all(f.images[x] in kernel for x in kernel)
    ]


def _rho(ext: Extension, auti: list[GroupMap]):
    return [(f, *gamma_parts(ext, f)) for f in auti]


def _rho_kernel(ext: Extension, rho_list) -> list[GroupMap]:
    idh, idi = tuple(ext.module.H.elements()), tuple(ext.module.I.elements())
    return [f for f, gh, gi in rho_list if gh.images == idh and gi.images == idi]


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


def rho(ext: Extension, bound: int = DEFAULT_AUT_BOUND):
    """[(gamma, gamma_H, gamma_I)] over Aut_I(E, R_E)."""
    return _rho(ext, aut_I(ext, bound))


def aut_HI(ext: Extension, bound: int = DEFAULT_AUT_BOUND) -> list[GroupMap]:
    """Kernel of rho: automorphisms inducing the identity on both H and I."""
    return _rho_kernel(ext, rho(ext, bound))


def c_mu(module: RBModule, bound: int = DEFAULT_AUT_BOUND) -> list[tuple[GroupMap, GroupMap]]:
    """Pairs (phi, psi) of operator-automorphisms with mu_h = psi^-1 mu_{phi(h)} psi."""
    aut_h = rb_automorphisms(module.H, module.hop, bound)
    aut_i = rb_automorphisms(module.I, RotaBaxterOperator(module.I, module.ri), bound)
    out = [(phi, psi) for phi in aut_h for psi in aut_i if in_c_mu(module, phi, psi)]
    out.sort(key=lambda c: (c[0].images, c[1].images))
    return out


def in_c_mu(module: RBModule, phi: GroupMap, psi: GroupMap) -> bool:
    return all(
        module.action[phi.images[h]][psi.images[y]] == psi.images[module.action[h][y]]
        for h in module.H.elements()
        for y in module.I.elements()
    )


def act_on_pair(
    module: RBModule, c: tuple[GroupMap, GroupMap], pair: CocyclePair
) -> CocyclePair:
    """(tau, g)^(phi, psi): twist arguments by phi and values by psi^-1."""
    phi, psi = c
    if not in_c_mu(module, phi, psi):
        raise ValueError("pair (phi, psi) is not in C_mu")
    psi_inv = [0] * module.I.order
    for y, img in enumerate(psi.images):
        psi_inv[img] = y
    tau = Cochain.from_callable(
        module, 2, lambda h1, h2: psi_inv[pair.tau((phi.images[h1], phi.images[h2]))]
    )
    g = Cochain.from_callable(module, 1, lambda h: psi_inv[pair.g((phi.images[h],))])
    return CocyclePair(tau, g)


def compose_pairs(c1, c2):
    """(phi1, psi1)(phi2, psi2) componentwise; cochain twisting is a right action."""
    return (compose(c1[0], c2[0]), compose(c1[1], c2[1]))


def _pair_generators(cmu: list[tuple[GroupMap, GroupMap]]) -> list[tuple[GroupMap, GroupMap]]:
    """Each pair of C_mu, in order, outside the subgroup the ones before it
    generate: a greedy generating set of the group C_mu."""
    phi, psi = cmu[0]
    one = (tuple(range(len(phi.images))), tuple(range(len(psi.images))))
    gens, keys, span = [], [], {one}
    for c in cmu:
        key = (c[0].images, c[1].images)
        if key in span:
            continue
        gens.append(c)
        keys.append(key)
        span, frontier = {one}, [one]
        while frontier:  # right multiplication by the generators, from the identity
            nxt = []
            for a in frontier:
                for b in keys:  # the key of compose_pairs(a, b)
                    ab = (tuple(map(a[0].__getitem__, b[0])), tuple(map(a[1].__getitem__, b[1])))
                    if ab not in span:
                        span.add(ab)
                        nxt.append(ab)
            frontier = nxt
    return gens


def twist_extension(ext: Extension, c: tuple[GroupMap, GroupMap]) -> Extension:
    """The same carrier read through inclusion i psi and projection phi^-1 pi.

    Its pair, read off through the twisted section, equals act_on_pair(c,
    pair); used to cross-check the cochain-level action against the
    extension-level one.
    """
    phi, psi = c
    h, e = ext.h_rb.group, ext.E
    phi_inv = [0] * h.order
    for hh, img in enumerate(phi.images):
        phi_inv[img] = hh
    return dataclasses.replace(
        ext,
        include=compose(ext.include, psi),
        project=GroupMap(e, h, tuple(phi_inv[ext.project.images[x]] for x in e.elements())),
        section=GroupMap(h, e, tuple(ext.section.images[phi.images[hh]] for hh in h.elements())),
    )


def wells_map(
    ext: Extension,
    h2: H2Result | None = None,
    cmu: list[tuple[GroupMap, GroupMap]] | None = None,
):
    """omega(E): for each c in C_mu the H2 class with [E]^c = [E]^{omega(c)}.

    Since the translation action is free and transitive on classes, this is
    the class of (pair^c - pair).
    """
    m = ext.module
    if h2 is None:
        h2 = h2_rbe(m)
    if cmu is None:
        cmu = c_mu(m)
    base = ext.pair
    out = []
    for c in cmu:
        moved = act_on_pair(m, c, base)
        out.append((c, h2.class_of(moved.sub(base))))
    return out


# ---------------------------------------------------------------------------
# Aut^{H,I}(E, R_E) ~ Z1
# ---------------------------------------------------------------------------


def eta(ext: Extension, lam: Cochain) -> GroupMap:
    """The automorphism s(h) i(y) -> s(h) i(lam(h) + y) attached to a derivation."""
    return ext.shift_map(ext, (0,) + lam.value_vector())


def zeta(ext: Extension, gamma: GroupMap) -> Cochain:
    """The derivation h -> kernel coordinate of s(h)^-1 gamma(s(h))."""
    e, s = ext.E, ext.section.images
    return Cochain.from_callable(
        ext.module, 1, lambda h: ext.coordinate(e.table[e.inverses[s[h]]][gamma.images[s[h]]])
    )


def z1_iso_check(ext: Extension, bound: int = DEFAULT_AUT_BOUND) -> dict:
    """Verify eta/zeta are mutually inverse group isomorphisms Z1 ~ Aut^{H,I}."""
    return _z1_iso(ext, z1_rbe(ext.module), aut_HI(ext, bound))


def _sum_generators(add, z1: list[Cochain]) -> list[Cochain]:
    """Each cochain of z1, in order, outside the subgroup the ones before it
    generate under I's addition table add: a greedy generating set."""
    gens, span = [], set()
    for lam in z1:
        if lam.vector not in span:
            gens.append(lam)
            span = span or {(0,) * len(lam.vector)}  # grown to span + <lam> by its cosets
            coset = [_vadd(add, x, lam.vector) for x in span]
            while coset[0] not in span:
                span.update(coset)
                coset = [_vadd(add, x, lam.vector) for x in coset]
    return gens


def _z1_iso(ext: Extension, z1: list[Cochain], hi: list[GroupMap]) -> dict:
    eta_images = {}
    ok = True
    for lam in z1:
        f = eta(ext, lam)
        if not is_homomorphism(f):
            ok = False
        if not all(
            f.images[ext.operator.images[x]] == ext.operator.images[f.images[x]]
            for x in ext.E.elements()
        ):
            ok = False
        back = zeta(ext, f)
        if back.value_vector() != lam.value_vector():
            ok = False
        eta_images[f.images] = lam
    if {f.images for f in hi} != set(eta_images):
        ok = False
    for f in hi:
        lam = zeta(ext, f)
        if eta(ext, lam).images != f.images:
            ok = False
    # eta is a homomorphism: pointwise sums map to compositions.  Checked for
    # every a and each generator b, it holds for every b, a nonempty sum of
    # generators, by induction on the length of the sum
    gens = _sum_generators(ext.module.I.table, z1)
    for a in z1:
        for b in gens:
            if eta(ext, a.add(b)).images != compose(eta(ext, a), eta(ext, b)).images:
                ok = False
    return {"z1_order": len(z1), "autHI_order": len(hi), "isomorphic": ok}


# ---------------------------------------------------------------------------
# exactness report
# ---------------------------------------------------------------------------


def check_wells_exactness(
    ext: Extension,
    bound: int = DEFAULT_AUT_BOUND,
    budget: int = DEFAULT_COHOMOLOGY_BUDGET,
) -> dict:
    """Verify 0 -> Z1 -> Aut_I(E) -> C_mu -> H2 at every joint, with witnesses.

    Aut_I(E) is built once; rho, its kernel and the Z1 check all use it.
    """
    m = ext.module
    h2 = h2_rbe(m, budget)
    cmu = c_mu(m, bound=bound)
    auti = aut_I(ext, bound)
    rho_list = _rho(ext, auti)
    hi = _rho_kernel(ext, rho_list)
    z1 = z1_rbe(m, budget)
    witnesses = []

    exact_at_autI = _z1_iso(ext, z1, hi)["isomorphic"]
    if not exact_at_autI:
        witnesses.append({"joint": "autI", "reason": "Z1 does not match Ker(rho)"})

    image_rho = {(gh.images, gi.images) for _, gh, gi in rho_list}
    cmu_keys = {(phi.images, psi.images) for phi, psi in cmu}
    if not image_rho <= cmu_keys:
        witnesses.append({"joint": "cmu", "reason": "Im(rho) not inside C_mu"})

    omega = wells_map(ext, h2, cmu)
    zero_class = h2.class_of(CocyclePair.zero(m))
    kernel_omega = {
        (c[0].images, c[1].images)
        for c, cls in omega
        if cls.key() == zero_class.key()
    }
    exact_at_cmu = image_rho == kernel_omega
    if not exact_at_cmu:
        only_rho = sorted(image_rho - kernel_omega)
        only_ker = sorted(kernel_omega - image_rho)
        witnesses.append(
            {
                "joint": "cmu",
                "reason": "Im(rho) != Ker(omega)",
                "im_rho_only": [list(map(list, k)) for k in only_rho[:3]],
                "ker_omega_only": [list(map(list, k)) for k in only_ker[:3]],
            }
        )

    omega_by_key = {
        (c[0].images, c[1].images): (c, cls) for c, cls in omega
    }
    # omega(c1 c2) = omega(c1)^c2 + omega(c2) for each c2 of a generating
    # set, and every c1, gives it for every c2, by induction on word length:
    # the action is a right action by additive maps
    derivation_ok = True
    gens = _pair_generators(cmu)
    for c1 in cmu:
        for c2 in gens:
            c12 = compose_pairs(c1, c2)
            _, lhs = omega_by_key[(c12[0].images, c12[1].images)]
            cls1 = omega_by_key[(c1[0].images, c1[1].images)][1]
            cls2 = omega_by_key[(c2[0].images, c2[1].images)][1]
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
    return {
        "z1_order": len(z1),
        "autI_order": len(auti),
        "autHI_order": len(hi),
        "cmu_order": len(cmu),
        "h2_order": h2.order_h2,
        "exact_at_autI": exact_at_autI,
        "exact_at_cmu": exact_at_cmu,
        "omega_is_derivation": derivation_ok,
        "witnesses": witnesses,
    }
