"""Rota-Baxter extensions of (H, R_H) by (I, R_I), all built from associated
triplets (mu, tau, g), plus couplings and the central action.

One `Extension` type and one builder cover every case: an abelian extension
with 2-cocycle (tau, g) is the triplet (mu, tau, g) with abelian I and
anti-homomorphic mu, and a split extension is a triplet with tau = 0.

The builder lays carriers out as H x I with pair index h*|I| + y, group law
(h1,y1)(h2,y2) = (h1 h2, tau(h1,h2) mu_{h2}(y1) y2) and operator
R(h,y) = (R_H h, g(h) R_I(i_{g(h)^-1} mu_{R_H h}(y))), which for abelian I is
(R_H h, g(h) + R_I(mu_{R_H h}(y))), and verifies everything it constructs.
No other code relies on that layout: an `Extension` is read through its
section and inclusion (`Extension.element` and `Extension.coordinate`), so
carriers laid out any other way work too.

Two extensions (or triplets) are equivalent when they differ by a change of
section s -> s.theta with theta: H -> I, theta(e) = e.  Equivalence classes
are therefore computed as theta-orbits: one pass over the members, taking
the orbit of each member not yet classified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .groups import (
    BudgetError,
    FiniteGroup,
    GroupMap,
    _dfs,
    _intertwine_witness,
    _orbit_classes,
    action_witness,
    center,
    group_table_witness,
    is_homomorphism,
)
from .cohomology import (DEFAULT_COHOMOLOGY_BUDGET, Cochain, CocyclePair, RBModule, d2_rbe,
                         h2_rbe, is_two_cocycle)
from .operators import RotaBaxterOperator, _circle_rows, rb_witness

DEFAULT_THETA_BUDGET = 10**4
DEFAULT_TRIPLET_BUDGET = 10**6


class ExtensionError(ValueError):
    """A constructive extension check failed; `witness` locates the failure."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _thetas(h: FiniteGroup, i: FiniteGroup, stage: str, budget: int):
    """Every normalized theta: H -> I (theta[0] = 0), in itertools.product order."""
    size = i.order ** (h.order - 1)
    if size > budget:
        raise BudgetError(f"{stage}: {size} theta maps exceed budget {budget}",
                          stage=stage, size=size)
    for rest in itertools.product(i.elements(), repeat=h.order - 1):
        yield (0,) + rest


# ---------------------------------------------------------------------------
# triplets and the one extension builder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triplet:
    """Candidate datum (mu, tau, g) for an extension.

    mu: per-h automorphism tables of I (not necessarily anti-homomorphic);
    tau: |H| x |H| table of I elements, normalized; g: map H -> I, g(0) = 0.
    """

    mu: tuple[tuple[int, ...], ...]
    tau: tuple[tuple[int, ...], ...]
    g: tuple[int, ...]

    def key(self):
        return (self.mu, self.tau, self.g)


@dataclass
class Extension:
    """A built extension carrier E with its operator and structure maps.

    Only the carrier is stored.  Its triplet is read off through the
    canonical section; for abelian I so are the module (I, R_I, mu) and the
    2-cocycle pair (tau, g) over it.
    """

    h_rb: RotaBaxterOperator
    i_rb: RotaBaxterOperator
    E: FiniteGroup
    operator: RotaBaxterOperator
    include: GroupMap
    project: GroupMap
    section: GroupMap

    @cached_property
    def triplet(self) -> Triplet:
        return extract_triplet(self)

    @cached_property
    def module(self) -> RBModule:
        """The Rota-Baxter module of an abelian kernel; ValueError otherwise."""
        return RBModule(self.h_rb, self.i_rb.group, self.i_rb.images, self.triplet.mu)

    @cached_property
    def pair(self) -> CocyclePair:
        return _triplet_pair(self.module, self.triplet)

    @cached_property
    def _coordinates(self) -> dict[int, int]:
        return {x: y for y, x in enumerate(self.include.images)}

    def coordinate(self, x: int) -> int:
        """The kernel coordinate y with include(y) = x."""
        y = self._coordinates.get(x)
        if y is None:
            raise AssertionError("expected a kernel element")
        return y

    def element(self, h: int, y: int) -> int:
        """s(h) i(y), through the stored section and inclusion."""
        return self.E.table[self.section.images[h]][self.include.images[y]]

    def shift_map(self, target: "Extension", theta) -> GroupMap:
        """The section shift s(h) i(y) -> s'(h) i'(theta(h) y) into target,
        with theta indexed by the elements of H."""
        mul = self.i_rb.group.table
        images = [0] * self.E.order
        for hh in self.h_rb.group.elements():
            for y in self.i_rb.group.elements():
                images[self.element(hh, y)] = target.element(hh, mul[theta[hh]][y])
        return GroupMap(self.E, target.E, tuple(images))


def _triplet_pair(module: RBModule, t: Triplet) -> CocyclePair:
    """The cochain pair (tau, g) of a triplet over an abelian kernel."""
    return CocyclePair(Cochain(module, 2, [v for row in t.tau[1:] for v in row[1:]]),
                       Cochain(module, 1, t.g[1:]))


def _table(values, nh: int) -> tuple[tuple[int, ...], ...]:
    """The normalized |H| x |H| table of values listed over the nondegenerate
    pairs in key order."""
    w = nh - 1
    return ((0,) * nh,) + tuple((0, *values[hh * w - w:hh * w]) for hh in range(1, nh))


def _embed(pair: CocyclePair, h: FiniteGroup, elems):
    """pair's tau and g as tables in I, the value v read as elems[v]."""
    return (_table([elems[v] for v in pair.tau.vector], h.order),
            (0, *(elems[v] for v in pair.g.vector)))


def _candidate_table(h: FiniteGroup, i: FiniteGroup, mu, tau) -> list[list[int]]:
    """Cayley table of H x I under (h1,y1)(h2,y2) = (h1 h2, tau(h1,h2) mu_{h2}(y1) y2)."""
    ni, add = i.order, i.table
    table = []
    for h1 in h.elements():
        for y1 in i.elements():
            row = []
            for h2 in h.elements():
                base = h.table[h1][h2] * ni
                row += [base + yy for yy in add[add[tau[h1][h2]][mu[h2][y1]]]]
            table.append(row)
    return table


def _candidate_operator(h_rb, i_rb, mu, g) -> tuple[int, ...]:
    """R_E(h,y) = (R_H h, g(h) R_I(i_{g(h)^-1} mu_{R_H h}(y)))."""
    i = i_rb.group
    ni = i.order
    r_images = []
    for hh in h_rb.group.elements():
        ghh = g[hh]
        ghi = i.inverses[ghh]
        for y in i.elements():
            conj = i.table[i.table[ghi][mu[h_rb.images[hh]][y]]][ghh]
            r_images.append(h_rb.images[hh] * ni + i.table[ghh][i_rb.images[conj]])
    return tuple(r_images)


def _mu_witness(mu, i: FiniteGroup):
    """First reason mu is not a family of automorphisms with mu_e = id, or None."""
    if tuple(mu[0]) != tuple(i.elements()):
        return ("structural", "mu at identity is not id")
    w = action_witness(i, mu)
    if w is not None:
        return ("structural", f"mu_{w[1][0]} is not an automorphism")
    return None


def _build(t: Triplet, h_rb: RotaBaxterOperator, i_rb: RotaBaxterOperator):
    """Build the carrier of t, checking each part once: (None, Extension), or
    (witness, None) with witness ("structural"/"group:..."/"rb-law", where).

    The group axioms are checked on the table and the Rota-Baxter law on the
    operator; the structure maps are then verified as well.  This is the one
    place that lays the carrier out (pair index h*|I| + y); everything else
    reads it through the section and the inclusion.
    """
    h, i = h_rb.group, i_rb.group
    shape = (len(t.mu), len(t.g), *map(len, t.tau))
    if shape != (h.order,) * (h.order + 2):
        return ("structural", "shape"), None
    w = _mu_witness(t.mu, i)
    if w is not None:
        return w, None
    for hh in h.elements():
        if t.tau[0][hh] != 0 or t.tau[hh][0] != 0:
            return ("structural", f"tau not normalized at {hh}"), None
    if t.g[0] != 0:
        return ("structural", "g(identity) != identity"), None
    for h1, h2 in itertools.product(h.elements(), repeat=2):
        if not 0 <= t.tau[h1][h2] < i.order:
            return ("structural", f"tau({h1},{h2}) is not an element of I"), None
    for hh in h.elements():
        if not 0 <= t.g[hh] < i.order:
            return ("structural", f"g({hh}) is not an element of I"), None
    table = _candidate_table(h, i, t.mu, t.tau)
    w = group_table_witness(table)
    if w is not None:
        return ("group:" + w[0], w[1]), None
    labels = None
    if h.labels is not None and i.labels is not None:
        labels = [f"({h.label(a)},{i.label(b)})" for a in h.elements() for b in i.elements()]
    e_group = FiniteGroup(table, labels=labels, name=f"E({h.name},{i.name})", check=False)
    images = _candidate_operator(h_rb, i_rb, t.mu, t.g)
    w = rb_witness(e_group, images)
    if w is not None:
        return ("rb-law", w), None
    ni = i.order
    ext = Extension(
        h_rb,
        i_rb,
        e_group,
        RotaBaxterOperator(e_group, images),
        GroupMap(i, e_group, tuple(range(ni))),
        GroupMap(e_group, h, tuple(x // ni for x in e_group.elements())),
        GroupMap(h, e_group, tuple(hh * ni for hh in h.elements())),
    )
    _verify_extension_invariants(ext, t)
    return None, ext


def _verify_extension_invariants(ext: Extension, t: Triplet) -> None:
    """Structure-map checks on a carrier whose table and operator passed."""
    h, i, e = ext.h_rb.group, ext.i_rb.group, ext.E
    if not is_homomorphism(ext.include) or len(set(ext.include.images)) != i.order:
        raise AssertionError("inclusion is not an injective homomorphism")
    if not is_homomorphism(ext.project) or set(ext.project.images) != set(h.elements()):
        raise AssertionError("projection is not a surjective homomorphism")
    kernel = {x for x in e.elements() if ext.project.images[x] == 0}
    if kernel != set(ext.include.images):
        raise AssertionError("kernel of projection differs from the included copy")
    r = ext.operator.images
    if _intertwine_witness(ext.include.images, ext.i_rb.images, r) is not None:
        raise AssertionError("R_E does not restrict to R_I on the kernel")
    if _intertwine_witness(ext.project.images, r, ext.h_rb.images) is not None:
        raise AssertionError("projection does not intertwine R_E with R_H")
    if ext.triplet.key() != (tuple(map(tuple, t.mu)), tuple(map(tuple, t.tau)), tuple(t.g)):
        raise AssertionError("the canonical section does not read back the triplet")


def verify_triplet(t: Triplet, h_rb: RotaBaxterOperator, i_rb: RotaBaxterOperator):
    """Constructive check: build the candidate extension and test everything.

    Returns None when (mu, tau, g) is an associated triplet, else a witness
    ("structural"/"group:..."/"rb-law", where).
    """
    return _build(t, h_rb, i_rb)[0]


def build_triplet_extension(
    t: Triplet, h_rb: RotaBaxterOperator, i_rb: RotaBaxterOperator
) -> Extension:
    w, ext = _build(t, h_rb, i_rb)
    if w is not None:
        raise ExtensionError(f"not an associated triplet: {w[0]} at {w[1]}", witness=w)
    return ext


def build_abelian_extension(module: RBModule, pair: CocyclePair) -> Extension:
    """Construct E(tau, g) from a 2-cocycle pair; raises on a non-cocycle.

    The error message names which of the two cocycle conditions failed and
    the first tuple where it does.  The pair is then the triplet
    (mu, tau, g) with mu the module's action, and the extension keeps the
    module it was given: the builder's read-back check makes its action the
    extension's mu.
    """
    dt, beta = d2_rbe(pair)
    for image, condition, kind in ((dt, "group cocycle", "group-cocycle"),
                                   (beta, "operator", "operator-cocycle")):
        if not image.is_zero():
            bad = next(t for t, v in sorted(image.values.items()) if v != 0)
            raise ExtensionError(
                f"pair is not a 2-cocycle: {condition} condition fails at {bad}",
                witness=(kind, bad),
            )
    t = Triplet(module.action, *_embed(pair, module.H, module.I.elements()))
    w, ext = _build(t, module.hop, RotaBaxterOperator(module.I, module.ri))
    if w is not None:
        raise AssertionError(f"a 2-cocycle is not an associated triplet: {w[0]} at {w[1]}")
    ext.module = module
    return ext


def build_split_extension(
    h_rb: RotaBaxterOperator,
    i_rb: RotaBaxterOperator,
    mu,
    g,
) -> Extension:
    """Semidirect product H x| I with R(h,y) = (R_H h, g(h) R_I(i_{g(h)^-1} mu_{R_H h}(y))).

    mu must be a genuine anti-homomorphism here (the section is homomorphic);
    the split compatibility condition on (mu, g) is checked constructively,
    with the first violating pair reported on failure.
    """
    h, i = h_rb.group, i_rb.group
    mu = tuple(tuple(row) for row in mu)
    w = action_witness(i, mu, h.table)
    if w is not None and w[0] == "anti-homomorphism":
        raise ValueError(f"mu is not an anti-homomorphism at {w[1]}")
    if w is not None:
        raise ValueError(f"mu_{w[1][0]} is not an automorphism of I")
    g = tuple(g)
    if g[0] != 0:
        raise ValueError("g must send the identity to the identity")
    zero_tau = tuple((0,) * h.order for _ in h.elements())
    w, ext = _build(Triplet(mu, zero_tau, g), h_rb, i_rb)
    if w is not None:
        raise ExtensionError(
            f"(mu, g) violates the split condition: {w[0]} at {w[1]}", witness=w
        )
    if not is_homomorphism(ext.section):
        raise AssertionError("split extension's canonical section must be homomorphic")
    return ext


# ---------------------------------------------------------------------------
# reading a carrier back through an st-section
# ---------------------------------------------------------------------------


def is_st_section(ext: Extension, s: GroupMap) -> bool:
    return (
        s.images[0] == 0
        and all(ext.project.images[s.images[h]] == h for h in ext.h_rb.group.elements())
    )


def st_sections(ext: Extension):
    """All set-theoretic sections of the projection fixing the identity."""
    h = ext.h_rb.group
    fibers = [
        [e for e in ext.E.elements() if ext.project.images[e] == hh] for hh in h.elements()
    ]
    for choice in itertools.product(*fibers[1:]):
        yield GroupMap(h, ext.E, (0,) + tuple(choice))


def extract_triplet(ext: Extension, section: GroupMap | None = None) -> Triplet:
    """Read (mu, tau, g) off an extension through an st-section s.

    mu_h(y) = s(h)^-1 y s(h), tau(h1,h2) = s(h1 h2)^-1 s(h1) s(h2), and g(h)
    is the kernel coordinate of s(R_H(h))^-1 R_E(s(h)).
    """
    if section is None:
        section = ext.section
    if not is_st_section(ext, section):
        raise ValueError("map is not an st-section of the extension")
    h, i, e = ext.h_rb.group, ext.i_rb.group, ext.E
    s, coord = section.images, ext.coordinate
    mu = tuple(
        tuple(
            coord(e.table[e.table[e.inverses[s[hh]]][ext.include.images[y]]][s[hh]])
            for y in i.elements()
        )
        for hh in h.elements()
    )
    tau = tuple(
        tuple(
            coord(e.table[e.inverses[s[h.table[h1][h2]]]][e.table[s[h1]][s[h2]]])
            for h2 in h.elements()
        )
        for h1 in h.elements()
    )
    g = tuple(
        coord(e.table[e.inverses[s[ext.h_rb.images[hh]]]][ext.operator.images[s[hh]]])
        for hh in h.elements()
    )
    return Triplet(mu, tau, g)


def extract_cocycle(ext: Extension, section: GroupMap | None = None) -> CocyclePair:
    """Read (tau, g) off an abelian extension through an st-section.

    The result is always a 2-cocycle over the extension's module.
    """
    pair = _triplet_pair(ext.module, extract_triplet(ext, section))
    if not is_two_cocycle(ext.module, pair):
        raise AssertionError("extracted pair is not a 2-cocycle")
    return pair


def extension_to_dict(ext: Extension) -> dict:
    """Serialize a built extension: full Cayley table plus (tau, g, mu)."""
    t = ext.triplet
    return {
        "order": ext.E.order,
        "table": [list(row) for row in ext.E.table],
        "operator": list(ext.operator.images),
        "tau": {
            f"({h1},{h2})": v for h1, row in enumerate(t.tau) for h2, v in enumerate(row) if v
        },
        "g": {str(h): v for h, v in enumerate(t.g) if v},
        "mu": [list(row) for row in t.mu],
    }


# ---------------------------------------------------------------------------
# equivalence and classification
# ---------------------------------------------------------------------------


def _shift_mu_tau(t: Triplet, theta, h_rb: RotaBaxterOperator, i_rb: RotaBaxterOperator):
    """The (mu, tau) of t read through the section shifted by theta."""
    h, i = h_rb.group, i_rb.group
    mul, inv = i.table, i.inverses
    mu = tuple(
        tuple(mul[mul[inv[theta[a]]][t.mu[a][y]]][theta[a]] for y in i.elements())
        for a in h.elements()
    )
    tau = tuple(
        tuple(
            mul[mul[mul[inv[theta[h.table[a][b]]]][t.tau[a][b]]][t.mu[b][theta[a]]]][theta[b]]
            for b in h.elements()
        )
        for a in h.elements()
    )
    return mu, tau


def _shift_g(t: Triplet, theta, h_rb: RotaBaxterOperator, i_rb: RotaBaxterOperator):
    """The g of t read through the section shifted by theta."""
    mul, inv, rh, ri = i_rb.group.table, i_rb.group.inverses, h_rb.images, i_rb.images
    conj = [mul[mul[inv[t.g[a]]][t.mu[rh[a]][theta[a]]]][t.g[a]] for a in h_rb.group.elements()]
    return tuple(mul[inv[theta[rh[a]]]][mul[t.g[a]][ri[c]]] for a, c in enumerate(conj))


def _shift_triplet(
    t: Triplet, theta, h_rb: RotaBaxterOperator, i_rb: RotaBaxterOperator
) -> Triplet:
    """t read through the section shifted by theta: triplets_equivalent's
    relations, solved for t2."""
    return Triplet(*_shift_mu_tau(t, theta, h_rb, i_rb), _shift_g(t, theta, h_rb, i_rb))


def _section_shift(t1, t2, h_rb, i_rb, stage: str, budget: int):
    """The first theta with _shift_triplet(t1, theta) == t2, or None."""
    for theta in _thetas(h_rb.group, i_rb.group, stage, budget):
        if _shift_triplet(t1, theta, h_rb, i_rb) == t2:
            return theta
    return None


def triplets_equivalent(
    t1: Triplet,
    t2: Triplet,
    h_rb: RotaBaxterOperator,
    i_rb: RotaBaxterOperator,
    budget: int = DEFAULT_THETA_BUDGET,
) -> tuple[int, ...] | None:
    """Search for theta: H -> I relating the triplets by a section shift.

    The three relations (with i_x(u) = x u x^-1):
      mu2_h = i_{theta(h)^-1} mu1_h,
      tau2(h1,h2) = theta(h1 h2)^-1 tau1(h1,h2) mu1_{h2}(theta(h1)) theta(h2),
      theta(R_H(h)) g2(h) = g1(h) R_I(i_{g1(h)^-1}(mu1_{R_H(h)}(theta(h)))).
    """
    return _section_shift(t1, t2, h_rb, i_rb, "triplet equivalence", budget)


def are_equivalent(
    e1: Extension, e2: Extension, budget: int = DEFAULT_THETA_BUDGET
) -> GroupMap | None:
    """Fiber-preserving Rota-Baxter isomorphism s1(h) y -> s2(h) theta(h) y, or None.

    theta is the first of the |I|^(|H|-1) section shifts that reads e2's
    triplet as e1's; both must extend the same (H, R_H) by the same (I, R_I).
    """
    if (e1.h_rb, e1.i_rb) != (e2.h_rb, e2.i_rb):
        raise ValueError("extensions live over different modules")
    theta = _section_shift(
        e2.triplet, e1.triplet, e1.h_rb, e1.i_rb, "extension equivalence", budget
    )
    return None if theta is None else e1.shift_map(e2, theta)


def classify_abelian(module: RBModule, budget: int = DEFAULT_COHOMOLOGY_BUDGET) -> dict:
    """Partition all built extensions into theta-orbits and compare with |H2|.

    The orbit of an extension is the set of triplets read off it through the
    st-sections s.theta.
    """
    h2 = h2_rbe(module, budget)
    z2 = h2.z2
    exts = [build_abelian_extension(module, p) for p in z2]
    i_rb = RotaBaxterOperator(module.I, module.ri)

    def orbit(k: int):
        for theta in _thetas(module.H, module.I, "extension equivalence", DEFAULT_THETA_BUDGET):
            yield _shift_triplet(exts[k].triplet, theta, module.hop, i_rb).key()

    classes = _orbit_classes([ext.triplet.key() for ext in exts], orbit)
    reps = [z2[cls[0]] for cls in classes]  # z2 is sorted by key
    return {
        "num_classes": len(classes),
        "h2_order": h2.order_h2,
        "match": len(classes) == h2.order_h2,
        "class_representatives": [p.to_dict() for p in reps],
    }


# ---------------------------------------------------------------------------
# couplings and the census of triplets over a coupling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coupling:
    """A map H -> Out(I): for each h, the Inn(I)-coset of mu_h as its sorted
    automorphism tables y -> x mu_h(y) x^-1 over x in I.

    I's Cayley table is kept so that couplings over different kernels differ.
    """

    kernel: tuple[tuple[int, ...], ...]
    cosets: tuple[tuple[tuple[int, ...], ...], ...]

    def coset_members(self, h: int) -> tuple[tuple[int, ...], ...]:
        """The automorphism tables in the coset over h, sorted."""
        return self.cosets[h]


def _inn_coset(i: FiniteGroup, row) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted({tuple(i.conj(x, v) for v in row) for x in i.elements()}))


def coupling_of(t: Triplet, h_group: FiniteGroup, i_group: FiniteGroup) -> Coupling:
    """Reduce mu modulo Inn(I); an invariant of the extension class."""
    if len(t.mu) != h_group.order:
        raise ValueError(f"mu has {len(t.mu)} maps for |H| = {h_group.order}")
    if action_witness(i_group, t.mu) is not None:
        raise ValueError("map is not an automorphism of the base group")
    return Coupling(i_group.table, tuple(_inn_coset(i_group, row) for row in t.mu))


def trivial_coupling(h_group: FiniteGroup, i_group: FiniteGroup) -> Coupling:
    inner = _inn_coset(i_group, i_group.elements())
    return Coupling(i_group.table, (inner,) * h_group.order)


def is_coupling(c: Coupling, h_group: FiniteGroup) -> bool:
    """The induced map into Out(I) must respect products (anti, in the
    function-composition convention used for automorphism tables here)."""
    for h1 in h_group.elements():
        a = c.cosets[h1][0]
        for h2 in h_group.elements():
            b = c.cosets[h2][0]
            if tuple(b[v] for v in a) not in c.cosets[h_group.table[h1][h2]]:
                return False
    return True


@dataclass
class TripletCensus:
    """Exhaustive classification of associated triplets over one coupling."""

    h_rb: RotaBaxterOperator
    i_rb: RotaBaxterOperator
    coupling: Coupling
    triplets: list[Triplet]
    classes: list[list[int]]
    representatives: list[Triplet]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def _class_index(self) -> dict:
        return {self.triplets[k].key(): ci for ci, cls in enumerate(self.classes) for k in cls}

    def class_of(self, t: Triplet) -> int:
        """Census class index of a triplet (the census holds every valid one)."""
        ci = self._class_index.get(t.key())
        if ci is None:
            raise ValueError("triplet is not equivalent to any census class")
        return ci


def _schreier_cosets(i: FiniteGroup) -> dict[tuple[int, ...], list[int]]:
    """Each conjugation table y -> x^-1 y x of I, with its x in index order
    (one Z(I)-coset per table)."""
    cosets: dict[tuple[int, ...], list[int]] = {}
    for x in i.elements():
        cosets.setdefault(tuple(i.conj(i.inverses[x], y) for y in i.elements()), []).append(x)
    return cosets


def _tau_choices(h: FiniteGroup, mu, cosets, slots) -> list[list[int]]:
    """Schreier's condition (i) per slot: the tau(h2,h3) with
    mu_{h3} mu_{h2} = inn(tau(h2,h3)^-1) mu_{h2 h3}, an empty list when mu
    admits none."""
    choices = []
    for h2, h3 in slots:
        twist = [0] * len(mu[0])
        for y, z in enumerate(mu[h.table[h2][h3]]):
            twist[z] = mu[h3][mu[h2][y]]
        choices.append(cosets.get(tuple(twist), []))
    return choices


def _schreier_cocycle(h: FiniteGroup, i: FiniteGroup, mu, tau) -> bool:
    """Schreier's condition (ii): tau(h1 h2, h3) mu_{h3}(tau(h1,h2)) =
    tau(h1, h2 h3) tau(h2,h3) for all h1, h2, h3 (trivial when one is e)."""
    ht, it = h.table, i.table
    nh = h.order
    for h1 in range(1, nh):
        for h2 in range(1, nh):
            h12, t12 = ht[h1][h2], tau[h1][h2]
            for h3 in range(1, nh):
                if it[tau[h12][h3]][mu[h3][t12]] != it[tau[h1][ht[h2][h3]]][tau[h2][h3]]:
                    return False
    return True


def h2_alpha(
    h_rb: RotaBaxterOperator,
    i_rb: RotaBaxterOperator,
    alpha: Coupling,
    budget: int = DEFAULT_TRIPLET_BUDGET,
) -> TripletCensus:
    """Enumerate all associated triplets with coupling alpha, up to equivalence.

    Candidates are Inn-coset lifts of alpha at each h (identity pinned at e),
    each coset member checked once to be an automorphism of I, crossed with
    normalized tau and g.  Schreier's extension conditions
    (Robinson, A Course in the Theory of Groups, ch. 11) decide which
    (mu, tau) give a group, with no table built: the law
    (h1,y1)(h2,y2) = (h1 h2, tau(h1,h2) mu_{h2}(y1) y2) is associative iff
      (i)  mu_{h3} mu_{h2} = inn(tau(h2,h3)^-1) mu_{h2 h3} for all h2, h3, and
      (ii) tau(h1 h2, h3) mu_{h3}(tau(h1,h2)) = tau(h1, h2 h3) tau(h2,h3)
           for all h1, h2, h3.
    (i) leaves each slot of tau one Z(I)-coset or nothing, which rejects mu;
    (ii) filters the product of those cosets, walked in index order.  A
    section shift (`triplets_equivalent`) moves (mu, tau) without reading g,
    and shifts form a group action, so every valid triplet is a shift of one
    over the first solved pair of its theta-orbit.  The g are found there
    (and at every pair of an orbit with no g): the table is built and
    guarded by group_table_witness, and one run of `groups._dfs` over its
    circle rows, with domain {R_I(y)} at i(y) and the fibre over R_H(h) at
    s(h) i(y), lists the operators of the valid g, since R(s(h) i(y)) is
    fixed by R_I and R(s(h)) = s(R_H h) i(g(h)); they come out sorted by g,
    as two differ first at some s(h).  One pass of shifts from each g not
    yet reached gives its class, and so the orbit's triplets; each theta's
    target pair is found once per orbit, so a theta costs one `_shift_g`
    per class.  A non-operator R_H or R_I has no triplet.  The budget bounds
    candidates, not work: mu-lifts x |Z(I)|^((|H|-1)^2) tau before the walk,
    then solved (mu, tau) x |I|^(|H|-1) g.
    """
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
    autos = [[row for row in lifts[hh] if action_witness(i, [row]) is None] for hh in range(1, nh)]
    for hh, rows in enumerate(autos, 1):  # Inn(I) o rows[0], over the inner tables of cosets
        if not rows or sorted(rows) != sorted({tuple(map(t.__getitem__, rows[0])) for t in cosets}):
            raise ValueError(f"the automorphisms of the coupling at {hh} are not one Inn(I)-coset")
    for mu_choice in itertools.product(*autos):
        mu = (identity,) + mu_choice
        for tau_vals in itertools.product(*_tau_choices(h, mu, cosets, tau_slots)):
            tau = _table(tau_vals, nh)
            if _schreier_cocycle(h, i, mu, tau):
                solved.append((mu, tau))
    total = len(solved) * ni ** (nh - 1)
    if total > budget:
        raise BudgetError(f"triplet census of size {total} exceeds budget {budget}",
                          stage="triplet census (mu, tau, g)", size=total)

    index = {pair: k for k, pair in enumerate(solved)}
    found: list[dict] = [{} for _ in solved]  # per pair, its valid g -> class
    lawful = rb_witness(h, h_rb.images) is None and rb_witness(i, i_rb.images) is None
    domains = [[v] for v in i_rb.images] + [range(r * ni, r * ni + ni) for r in h_rb.images[1:]
                                             for _ in identity]  # R_I(y), or R_H(h)'s fibre
    n_classes = 0
    for p, (mu, tau) in enumerate(solved):
        if found[p] or not lawful:  # no operator on E restricts to R_I and projects to R_H
            continue
        table = _candidate_table(h, i, mu, tau)
        if (w := group_table_witness(table)) is not None:
            raise AssertionError(f"Schreier's conditions passed a table failing {w}")
        rows, leaves = _circle_rows(table, [row.index(0) for row in table], domains), []
        _dfs(rows, table, [0] + [-1] * (nh * ni - 1), [0], [], leaves, domains, ni ** (nh - 1))
        gs = [tuple(v % ni for v in im[::ni]) for im in leaves]  # R(s(h)) = s(R_H h) i(g(h))
        thetas = _thetas(h, i, "triplet equivalence", DEFAULT_THETA_BUDGET) if gs else ()
        moves = [(theta, index.get(_shift_mu_tau(Triplet(mu, tau, ()), theta, h_rb, i_rb)))
                 for theta in thetas]  # each theta with its target pair
        if any(q is None for _, q in moves):
            raise AssertionError("a section shift leaves the solved (mu, tau)")
        for g in gs:
            if g not in found[p]:
                t = Triplet(mu, tau, g)
                for theta, q in moves:
                    if found[q].setdefault(_shift_g(t, theta, h_rb, i_rb), n_classes) != n_classes:
                        raise AssertionError("two classes overlap")
                n_classes += 1
        if sorted(found[p]) != gs or any(len(found[q]) != len(gs) for _, q in moves):
            raise AssertionError("the classes disagree with the g loop on an orbit's pairs")

    valid, classes = [], [[] for _ in range(n_classes)]
    for (mu, tau), at in zip(solved, found):
        for g in sorted(at):
            classes[at[g]].append(len(valid))
            valid.append(Triplet(mu, tau, g))
    for t in dict.fromkeys((max(valid, key=Triplet.key), valid[-1]) if valid else ()):
        if rb_witness(FiniteGroup(_candidate_table(h, i, t.mu, t.tau), check=False),
                      _candidate_operator(h_rb, i_rb, t.mu, t.g)) is not None:
            raise AssertionError(f"a transported triplet fails the law: {t}")
    reps = [min((valid[k] for k in cls), key=Triplet.key) for cls in classes]
    return TripletCensus(h_rb, i_rb, alpha, valid, classes, reps)


# ---------------------------------------------------------------------------
# the free action of H2(H, Z(I)) on the census
# ---------------------------------------------------------------------------


def center_module(census: TripletCensus) -> tuple[RBModule, tuple[int, ...]]:
    """The module (Z(I), R_I|_Z) with the action induced by the census.

    Returns the module together with the list embedding Z-indices into I.
    Raises if the census is empty, if Z(I) is not invariant under R_I, or if
    census members disagree on the induced action.
    """
    h_rb, i_rb = census.h_rb, census.i_rb
    if not census.triplets:
        raise ValueError("census has no triplets, so it induces no action on Z(I)")
    i = i_rb.group
    z_elems = tuple(center(i))
    z_set = set(z_elems)
    for z in z_elems:
        if i_rb.images[z] not in z_set:
            raise ValueError("Z(I) is not invariant under R_I")
    z_index = {z: k for k, z in enumerate(z_elems)}
    z_table = [[z_index[i.table[a][b]] for b in z_elems] for a in z_elems]
    z_group = FiniteGroup(z_table, name=f"Z({i.name})")
    z_ri = tuple(z_index[i_rb.images[z]] for z in z_elems)
    actions = {tuple(tuple(z_index[t.mu[hh][z]] for z in z_elems) for hh in h_rb.group.elements())
               for t in census.representatives or census.triplets}
    if len(actions) > 1:
        raise AssertionError("census members induce different actions on Z(I)")
    return RBModule(h_rb, z_group, z_ri, actions.pop()), z_elems


def _times(t: Triplet, tables, i: FiniteGroup) -> Triplet:
    """(mu, tau*tau', g*g') for the tables (tau', g') in I."""
    mul, (tau, g) = i.table, tables
    return Triplet(t.mu, tuple(tuple(mul[a][b] for a, b in zip(*rows)) for rows in zip(t.tau, tau)),
                   tuple(mul[a][b] for a, b in zip(t.g, g)))


def central_action(census: TripletCensus, budget: int = DEFAULT_COHOMOLOGY_BUDGET) -> dict:
    """Action table of H2(H, Z(I)) on the census classes, with freeness check.

    The class [(tau', g')] sends [(mu, tau, g)] to [(mu, tau*tau', g*g')].
    The census holds every associated triplet over its coupling and only
    those, and a central translate keeps mu, so the translate is valid
    exactly when it is a census member: its validity is read off the
    census, and a translate outside it raises AssertionError.
    """
    h, i = census.h_rb.group, census.i_rb.group
    module, z_elems = center_module(census)
    h2 = h2_rbe(module, budget)
    rows = {}  # per H2 class, the target of each census class
    for pair in h2.z2:
        z = _embed(pair, h, z_elems)
        row = [census._class_index.get(_times(t, z, i).key()) for t in census.representatives]
        if None in row:
            raise AssertionError("translated triplet is no longer valid")
        # well-definedness: every cocycle of an H2 class acts identically
        if rows.setdefault(h2.class_of(pair).key(), row) != row:
            raise AssertionError("central action is not well-defined")
    action_table = [rows[p.key()] for p in h2.representatives]
    if action_table[0] != list(range(census.num_classes)):
        raise AssertionError("identity class does not act as the identity")
    witnesses = [{"h2_class": pi, "census_class": ci} for pi, row in enumerate(action_table)
                 for ci, target in enumerate(row) if pi != 0 and target == ci]
    # orbit census (transitivity is measured, never asserted)
    orbits = len(_orbit_classes(
        list(range(census.num_classes)), lambda ci: (row[ci] for row in action_table)
    ))
    return {
        "h2_center_order": h2.order_h2,
        "num_classes": census.num_classes,
        "free": not witnesses,
        "orbits": orbits,
        "transitive": orbits == 1,
        "action": action_table,
        "witnesses": witnesses,
    }
