"""Cochain complexes for a Rota-Baxter group acting on an abelian one.

Carries the plain (dot) and circle coboundaries, the combined complexes, the
module condition, the maps Phi1/Phi2, and the degree 1..3 total complex
with d1/d2.  Z1 and Z2 are kernels, and B2 an image, of d1 and d2 compiled
into rows of endomorphisms of I on flat value vectors, found from generators
by one Schreier step (`_grow`) that also grows every span: one walk of im d1
lists B2 and generates Z1, and ker d2 is cut a row at a time.

The written maps evaluate through index stencils (per output, the input
positions each term reads), cached on product tables, H's inverses, R_H and
arity alone.  Nothing is cached on an RBModule: one module object serves
every extension built on it, so a per-module cache would favour repeated calls.

Sign conventions (each forced by the cochain-complex property and by the
extension roundtrip, see the delta/phi2/d1 docstrings): the coboundary's last
term carries (-1)^(n+1); d1(theta) = (delta theta, +Phi1 theta); Phi2 is
R_I(mu(four-term sum)) - f(R_H-, R_H-).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType

from .groups import (BudgetError, FiniteGroup, _generated, _intertwine_witness, _law_witness,
                     _orbit_classes, action_witness, json_element, json_field)
from .operators import RotaBaxterOperator, induced_circle_group

DEFAULT_COHOMOLOGY_BUDGET = 10**7


# ---------------------------------------------------------------------------
# modules over a Rota-Baxter group
# ---------------------------------------------------------------------------


def rb_module_witness(hop: RotaBaxterOperator, igroup: FiniteGroup, ri, action):
    """First violated module axiom, or None.

    Checks: I abelian; R_I an endomorphism; each mu_h an automorphism;
    mu an anti-homomorphism (mu_{h1 h2} = mu_{h2} mu_{h1}); and the
    compatibility condition
    mu_{R(h)}(R_I(z)) = R_I(mu_{h R(h)}(z + R_I(z)) - mu_{R(h)}(R_I(z))).
    """
    h = hop.group
    if not igroup.is_abelian:
        return ("abelian", ())
    ri = tuple(ri)
    w = _law_witness(igroup.table, igroup.table, ri, igroup._generators)
    if w is not None:
        return ("ri-endomorphism", w)
    action = tuple(tuple(row) for row in action)
    if len(action) != h.order:
        return ("action-shape", ())
    w = action_witness(igroup, action, h.table)
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


def is_rb_module(hop: RotaBaxterOperator, igroup: FiniteGroup, ri, action) -> bool:
    return rb_module_witness(hop, igroup, ri, action) is None


def trivial_action(h: FiniteGroup, igroup: FiniteGroup):
    return tuple(tuple(igroup.elements()) for _ in h.elements())


class RBModule:
    """An abelian Rota-Baxter group (I, R_I) with a right (H, R_H)-action."""

    def __init__(self, hop: RotaBaxterOperator, igroup: FiniteGroup, ri, action,
                 check: bool = True):
        self.hop = hop
        self.H = hop.group
        self.rh = hop.images
        self.I = igroup
        self.ri = tuple(ri)
        self.action = tuple(tuple(row) for row in action)
        if check:
            w = rb_module_witness(hop, igroup, ri, action)
            if w is not None:
                raise ValueError(f"not a Rota-Baxter module: {w[0]} fails at {w[1]}")

    @cached_property
    def circle(self) -> FiniteGroup:
        """(H, o_{R_H}), the circle group of the acting Rota-Baxter group."""
        return induced_circle_group(self.H, self.hop)

    def act(self, h: int, y: int) -> int:
        return self.action[h][y]

    def iadd(self, a: int, b: int) -> int:
        return self.I.table[a][b]

    def ineg(self, a: int) -> int:
        return self.I.inverses[a]

    def isub(self, a: int, b: int) -> int:
        return self.I.table[a][self.I.inverses[b]]

    def mu_commutes_with_ri(self) -> bool:
        """Whether every mu_h is an automorphism of (I, R_I)."""
        return all(_intertwine_witness(mu, self.ri, self.ri) is None for mu in self.action)

    def __repr__(self) -> str:
        return f"RBModule(H={self.H.name}, I={self.I.name})"


# ---------------------------------------------------------------------------
# normalized cochains
# ---------------------------------------------------------------------------


@cache
def nondegenerate_tuples(h_order: int, n: int) -> dict[tuple[int, ...], int]:
    """The n-tuples with no identity entry, in lexicographic order, each mapped
    to its position in a cochain's value vector."""
    return {t: k for k, t in enumerate(itertools.product(range(1, h_order), repeat=n))}


class Cochain:
    """A function H^n -> I vanishing whenever any argument is the identity,
    stored as its value vector over nondegenerate_tuples."""

    __slots__ = ("module", "arity", "vector", "_index")

    def __init__(self, module: RBModule, arity: int, vector):
        if arity < 1:
            raise ValueError("cochain arity must be >= 1")
        self.module = module
        self.arity = arity
        self.vector = tuple(vector)
        self._index = nondegenerate_tuples(module.H.order, arity)
        if len(self.vector) != len(self._index):
            raise ValueError("vector length does not match cochain table")

    @classmethod
    def zero(cls, module: RBModule, arity: int) -> "Cochain":
        return cls(module, arity, (0,) * (module.H.order - 1) ** arity)

    @classmethod
    def from_callable(cls, module: RBModule, arity: int, fn) -> "Cochain":
        return cls(module, arity, [fn(*t) for t in nondegenerate_tuples(module.H.order, arity)])

    @classmethod
    def from_vector(cls, module: RBModule, arity: int, vector) -> "Cochain":
        return cls(module, arity, vector)

    def __call__(self, args) -> int:
        if 0 in args:
            return 0
        return self.vector[self._index[tuple(args)]]

    @property
    def values(self) -> MappingProxyType:
        """Read-only {nondegenerate tuple: value}."""
        return MappingProxyType(dict(zip(self._index, self.vector)))

    def key(self) -> tuple[int, ...]:
        return self.vector

    def is_zero(self) -> bool:
        return not any(self.vector)

    def add(self, other: "Cochain") -> "Cochain":
        self._match(other)
        m = self.module
        return Cochain(m, self.arity, _vadd(m.I.table, self.vector, other.vector))

    def neg(self) -> "Cochain":
        inv = self.module.I.inverses
        return Cochain(self.module, self.arity, [inv[v] for v in self.vector])

    def sub(self, other: "Cochain") -> "Cochain":
        return self.add(other.neg())

    def _match(self, other: "Cochain") -> None:
        a, b = self.module, other.module
        if self.arity != other.arity or (
            a is not b and (a.H.table != b.H.table or a.I.table != b.I.table)
        ):
            raise ValueError("cochain mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.arity == other.arity
            and self.vector == other.vector
        )

    def __hash__(self) -> int:
        return hash((self.arity, self.vector))

    def __repr__(self) -> str:
        return f"Cochain(arity={self.arity}, {dict(self.values)})"

    def to_dict(self) -> dict:
        vals = {
            "(" + ",".join(str(x) for x in t) + ")": v
            for t, v in zip(self._index, self.vector)
            if v != 0
        }
        return {"arity": self.arity, "values": vals}

    @classmethod
    def from_dict(cls, module: RBModule, data: dict) -> "Cochain":
        """Read to_dict's format; keys must lie in (H - {e})^arity, values in I."""
        if not isinstance(data, dict) or not isinstance(data.get("values", {}), dict):
            raise ValueError("a cochain must be an object whose 'values' is an object")
        if type(arity := json_field(data, "arity", "cochain")) is not int:  # a bool too
            raise ValueError(f"cochain arity is {json.dumps(arity)}, not an integer")
        if arity < 1:
            raise ValueError("cochain arity must be >= 1")  # before the tuples are sized
        positions = nondegenerate_tuples(nh := module.H.order, arity)
        vector = [0] * len(positions)
        for key, v in data.get("values", {}).items():
            try:
                t = tuple(int(x) for x in key.strip("()").split(",") if x != "")
            except ValueError:
                raise ValueError(f"cochain key {key!r} is not a tuple of integers") from None
            if len(t) != arity:
                raise ValueError(f"cochain key {key!r} has wrong arity")
            if 0 in t:
                raise ValueError(f"cochain key {key!r} is degenerate")
            if t not in positions:
                raise ValueError(f"cochain key {key!r} has an entry outside 1..{nh - 1}")
            v = json_element(v, f"cochain value at key {key!r}")
            if not 0 <= v < module.I.order:
                raise ValueError(
                    f"cochain value {v} at key {key!r} is outside 0..{module.I.order - 1}"
                )
            vector[positions[t]] = v
        return cls(module, arity, vector)


def enumerate_cochains(module: RBModule, arity: int, budget: int | None = None):
    """All cochains H^arity -> I in lexicographic value order."""
    width = (module.H.order - 1) ** arity
    total = module.I.order ** width
    if budget is not None and total > budget:
        raise BudgetError(f"cochain space of size {total} exceeds budget {budget}",
                          stage=f"{arity}-cochains", size=total)
    for vec in itertools.product(module.I.elements(), repeat=width):
        yield Cochain(module, arity, vec)


# ---------------------------------------------------------------------------
# coboundaries
# ---------------------------------------------------------------------------


@cache
def _coboundary_stencil(table, n: int):
    """The arity-n coboundary over the product table, as index stencils: per
    nondegenerate (n+1)-tuple args, in vector order, the positions of the
    terms added (f(args[1:]) and the even merges), of the terms subtracted
    (the odd merges), and the action term's (args[n], position of args[:n]).
    A merge that hits the identity is degenerate, so f vanishes there and it
    is left out."""
    index = nondegenerate_tuples(len(table), n)
    stencil = []
    for args in nondegenerate_tuples(len(table), n + 1):
        terms = ([index[args[1:]]], [])
        for k in range(1, n + 1):
            merged = args[: k - 1] + (table[args[k - 1]][args[k]],) + args[k + 1 :]
            if merged in index:
                terms[k % 2].append(index[merged])
        stencil.append((tuple(terms[0]), tuple(terms[1]), args[n], index[args[:n]]))
    return tuple(stencil)


def _coboundary(f: Cochain, table, act) -> Cochain:
    """Normalized coboundary of the group with product table table, acting
    through the rows act[h] on I, with the bar-resolution sign (-1)^(n+1) on
    the action term; any other sign breaks d(d(f)) = 0 already for trivial
    actions."""
    m, n = f.module, f.arity
    add, neg, v = m.I.table, m.I.inverses, f.vector
    out = []
    for plus, minus, h, q in _coboundary_stencil(table, n):
        total = act[h][v[q]] if n % 2 else neg[act[h][v[q]]]
        for p in plus:
            total = add[total][v[p]]
        for p in minus:
            total = add[total][neg[v[p]]]
        out.append(total)
    return Cochain(m, n + 1, out)


def delta(f: Cochain) -> Cochain:
    """Coboundary of (H, .) acting through mu."""
    return _coboundary(f, f.module.H.table, f.module.action)


def partial(f: Cochain) -> Cochain:
    """Coboundary of the circle group (H, o) acting through h -> mu_{R_H(h)}."""
    return _coboundary(f, f.module.circle.table, mu_twist_action(f.module))


def validate_circle_action(module: RBModule, sigma) -> None:
    """sigma must be an anti-homomorphism of (H, o) into Aut(I) with
    R_I sigma_h = mu_{R_H(h)} R_I."""
    sigma = tuple(tuple(row) for row in sigma)
    if len(sigma) != module.H.order:
        raise ValueError("circle action has wrong length")
    w = action_witness(module.I, sigma, module.circle.table)
    if w is not None and w[0] == "anti-homomorphism":
        raise ValueError(f"sigma is not anti-homomorphic at {w[1]}")
    if w is not None:
        raise ValueError(f"sigma_{w[1][0]} is not an automorphism of I")
    for h, row in enumerate(sigma):
        if (y := _intertwine_witness(module.ri, row, module.action[module.rh[h]])) is not None:
            raise ValueError(f"intertwining R_I sigma = mu_R R_I fails at ({h}, {y})")


def mu_twist_action(module: RBModule):
    """The canonical circle action sigma_h = mu_{R_H(h)}."""
    return tuple(module.action[module.rh[h]] for h in module.H.elements())


def partial_circ(f: Cochain, sigma=None) -> Cochain:
    """Coboundary of (H, o) through a circle action sigma, by default mu_{R_H}
    (`partial`), which is always anti-homomorphic on (H, o), as R_H maps (H, o)
    to (H, .).  Only an explicit sigma is checked for R_I sigma = mu_R R_I; the
    combined complex guards itself through `_require_rb_automorphisms`."""
    if sigma is None:
        return partial(f)
    validate_circle_action(f.module, sigma)
    return _coboundary(f, f.module.circle.table, sigma)


def bar(f: Cochain) -> Cochain:
    """f-bar: precompose every argument with R_H."""
    m = f.module
    return Cochain.from_callable(m, f.arity, lambda *args: f(tuple(m.rh[a] for a in args)))


def ri_after(f: Cochain) -> Cochain:
    """R_I composed after f."""
    m = f.module
    return Cochain.from_callable(m, f.arity, lambda *args: m.ri[f(args)])


# ---------------------------------------------------------------------------
# combined complexes C^n_RB = C^n + C^(n-1) + C^n
# ---------------------------------------------------------------------------


def _require_rb_automorphisms(m: RBModule) -> None:
    if not m.mu_commutes_with_ri():
        raise ValueError("combined complex needs every mu_h to commute with R_I")


def delta_rb(element):
    """Combined coboundary; pairs (f, g) at degree 1, triples (f, g, h) above.

    Degree 1 maps to (delta f, bar f - R_I g, partial g); the middle term uses
    the minus variant, which is the one making the complex square to zero.
    """
    return partial_rb(element)


def partial_rb(element, sigma=None):
    """Like delta_rb but the third slot uses the sigma-twisted circle coboundary;
    the default sigma_h = mu_{R_H(h)} gives delta_rb itself."""
    if len(element) == 2:
        f, g = element
        _require_rb_automorphisms(f.module)
        if f.arity != 1 or g.arity != 1:
            raise ValueError("degree-1 element must be a pair of 1-cochains")
        return (delta(f), bar(f).sub(ri_after(g)), partial_circ(g, sigma))
    f, g, h = element
    _require_rb_automorphisms(f.module)
    n = f.arity
    if n < 2 or g.arity != n - 1 or h.arity != n:
        raise ValueError("triple must have arities (n, n-1, n) with n >= 2")
    term = bar(f).sub(ri_after(h))
    middle = partial(g).add(term if n % 2 else term.neg())
    return (delta(f), middle, partial_circ(h, sigma))


# ---------------------------------------------------------------------------
# the degree <= 3 total complex: TC^1 = C^1, TC^2 = C^2 + C^1, TC^3 = C^3 + C^2
# ---------------------------------------------------------------------------


def phi1(theta: Cochain) -> Cochain:
    """Phi1(theta)(h) = R_I(mu_{R_H(h)}(theta(h))) - theta(R_H(h))."""
    m = theta.module
    if theta.arity != 1:
        raise ValueError("phi1 takes a 1-cochain")

    v, ri, act, add, neg = theta.vector + (0,), m.ri, m.action, m.I.table, m.I.inverses
    # position h - 1 holds theta(h); R_H(h) = e reads the appended 0
    return Cochain(m, 1, [add[ri[act[r][v[h - 1]]]][neg[v[r - 1]]]
                          for h, r in enumerate(m.rh[1:], 1)])


@cache
def _phi2_stencil(table, inverses, rh):
    """phi2 over H's product table, inverses and R_H, as index stencils: per
    nondegenerate (h1, h2), in vector order, with r_k = R_H(h_k), the
    positions of a = f(h1 r1, h2 r1^-1), of b = f(h1, r1) with b's action
    subscript h2 r1^-1, of c = f(h2, r1^-1) and d = f(r1, r1^-1), the twist
    subscript r1 r2, and the position of f(r1, r2).  A degenerate pair has
    position -1, which reads the 0 appended to the vector."""
    index = nondegenerate_tuples(len(table), 2)

    def pos(*t):
        return index.get(t, -1)

    stencil = []
    for h1, h2 in index:
        r1, r2 = rh[h1], rh[h2]
        r1i = inverses[r1]
        stencil.append((pos(table[h1][r1], table[h2][r1i]), table[h2][r1i], pos(h1, r1),
                        pos(h2, r1i), pos(r1, r1i), table[r1][r2], pos(r1, r2)))
    return tuple(stencil)


def phi2(f: Cochain) -> Cochain:
    """The degree-2 companion of Phi1.

    Phi2(f) = R_I(mu_{R_H(h1)R_H(h2)}(four-term f sum)) - f(R_H(h1), R_H(h2)),
    with the twist applied to the whole sum.  Both the orientation and the
    bracketing are forced: the kernel of the degree-2 total coboundary must be
    exactly the set of pairs whose built extension operator satisfies the
    Rota-Baxter law, and the central-case square d1 Phi1 = Phi2 delta1 must
    commute.
    """
    m = f.module
    if f.arity != 2:
        raise ValueError("phi2 takes a 2-cochain")
    v, ri, act, add, neg = f.vector + (0,), m.ri, m.action, m.I.table, m.I.inverses
    return Cochain(m, 2, [
        add[ri[act[twist][add[add[v[a]][act[hb][v[b]]]][add[v[c]][neg[v[d]]]]]]][neg[v[e]]]
        for a, hb, b, c, d, twist, e in _phi2_stencil(m.H.table, m.H.inverses, m.rh)
    ])


@dataclass(frozen=True)
class CocyclePair:
    """An element (tau, g) of TC^2 = C^2(H, I) + C^1(H, I)."""

    tau: Cochain
    g: Cochain

    def __post_init__(self):
        if self.tau.arity != 2 or self.g.arity != 1:
            raise ValueError("pair must have arities (2, 1)")

    def add(self, other: "CocyclePair") -> "CocyclePair":
        return CocyclePair(self.tau.add(other.tau), self.g.add(other.g))

    def sub(self, other: "CocyclePair") -> "CocyclePair":
        return CocyclePair(self.tau.sub(other.tau), self.g.sub(other.g))

    def key(self) -> tuple[int, ...]:
        return self.tau.vector + self.g.vector

    def is_zero(self) -> bool:
        return self.tau.is_zero() and self.g.is_zero()

    @classmethod
    def zero(cls, module: RBModule) -> "CocyclePair":
        return cls(Cochain.zero(module, 2), Cochain.zero(module, 1))

    def to_dict(self) -> dict:
        return {"tau": self.tau.to_dict(), "g": self.g.to_dict()}

    @classmethod
    def from_dict(cls, module: RBModule, data: dict) -> "CocyclePair":
        return cls(*(Cochain.from_dict(module, json_field(data, key, "cocycle pair"))
                     for key in ("tau", "g")))


def d1_rbe(theta: Cochain) -> CocyclePair:
    """d1(theta) = (delta1 theta, Phi1 theta).

    The + sign on Phi1 makes the image exactly the set of pair differences
    realized by changing the section of an extension, which the bijection
    between extension classes and H2 requires.  The (delta1, -Phi1) variant
    spans the same subgroup only when I has exponent 2.
    """
    if theta.arity != 1:
        raise ValueError("d1 takes a 1-cochain")
    return CocyclePair(delta(theta), phi1(theta))


def d2_rbe(pair: CocyclePair) -> tuple[Cochain, Cochain]:
    """d2(tau, g) = (delta2 tau, beta); the pair is a 2-cocycle iff both vanish.

    beta(h1,h2) = partial1(g) - R_I(mu_{h2 R(h2)}(g(h1)) - mu_{R(h2)}(g(h1)))
                  - Phi2(tau); this is exactly the constant part of the
    Rota-Baxter law on the extension built from (tau, g).
    """
    tau, g = pair.tau, pair.g
    m = tau.module
    h, rh, ri, act, add, neg = m.H.table, m.rh, m.ri, m.action, m.I.table, m.I.inverses
    gv, pg, p2 = g.vector, partial(g).vector, phi2(tau).vector
    beta = []
    for k, (h1, h2) in enumerate(nondegenerate_tuples(m.H.order, 2)):
        gh1 = gv[h1 - 1]
        mid = ri[add[act[h[h2][rh[h2]]][gh1]][neg[act[rh[h2]][gh1]]]]
        beta.append(add[add[pg[k]][neg[mid]]][neg[p2[k]]])
    return (delta(tau), Cochain(m, 2, beta))


def is_two_cocycle(module: RBModule, pair: CocyclePair) -> bool:
    a, b = d2_rbe(pair)
    return a.is_zero() and b.is_zero()


# ---------------------------------------------------------------------------
# Z1, Z2, B2, H2 as kernels and images of the compiled d1 and d2
# ---------------------------------------------------------------------------


def _compile(module: RBModule, width: int, fn) -> list[list[tuple[int, tuple[int, ...]]]]:
    """fn on value vectors of length width, additive on a valid module, as
    rows: row o lists (j, e) for each coordinate j whose endomorphism of I,
    e(y) = fn(y at j, 0 elsewhere)[o], is nonzero; fn(v)[o] sums e(v[j]) over
    the row.  Probing fn keeps each map's formula written once.

    By additivity an endomorphism is fixed by its values at generators of I,
    so fn is probed only at the greedy generators s and each e is extended
    along their discovery tree by e(p s) = e(p) + e(s)."""
    i = module.I
    gens, order, parent = _generated(i.elements(), i.mul, 0)
    zero = tuple(fn([0] * width))
    rows = [[] for _ in zero]
    for j in range(width):
        probes = [fn([0] * j + [s] + [0] * (width - j - 1)) for s in gens]
        images = [zero] * i.order
        for y in order[1:]:
            p, k = parent[y]
            images[y] = _vadd(i.table, images[p], probes[k])
        for row, e in zip(rows, zip(*images)):  # e: output o's images over I
            if any(e):
                row.append((j, e))
    return rows


def _apply(add, row, v) -> int:
    total = 0
    for j, e in row:
        total = add[total][e[v[j]]]
    return total


def _vadd(add, a, b) -> tuple[int, ...]:
    return tuple(add[x][y] for x, y in zip(a, b))


def _pair(module: RBModule, key) -> CocyclePair:
    """The pair whose key() is key: the values of tau, then those of g."""
    k2 = (module.H.order - 1) ** 2
    tau, g = Cochain.from_vector(module, 2, key[:k2]), Cochain.from_vector(module, 1, key[k2:])
    return CocyclePair(tau, g)


def _d1_map(module: RBModule):
    """d1 on the value vectors of 1-cochains, as pair keys."""
    return lambda v: d1_rbe(Cochain.from_vector(module, 1, v)).key()


def _d2_map(module: RBModule):
    """d2 on pair keys, as the value vectors of (delta2 tau, beta)."""

    def d2(v):
        dt, beta = d2_rbe(_pair(module, v))
        return dt.vector + beta.vector

    return d2


def _grow(image, plus, add, neg, s, v):
    """One Schreier step: grow image, a subgroup of values each kept with one
    preimage, by its cosets + v, + 2v, ... (v the value of a new preimage s
    under plus, their preimages + s, + 2s, ... under I's addition table add)
    until k v lies in it, and return k s - preimage(k v) (neg: I's inverse
    table), which with the kernel so far generates the kernel with s.  No c v
    with c < k meets the cosets added before.  With empty preimages (neg is
    then never read) it grows a plain span."""
    cs, cv, old = s, v, list(image.items())
    while cv not in image:
        image.update((plus(y, cv), _vadd(add, p, cs)) for y, p in old)
        cs, cv = _vadd(add, cs, s), plus(cv, v)
    return _vadd(add, cs, [neg[y] for y in image[cv]])


def _coset_generators(add, vectors, width: int):
    """The greedy generators of width-long value vectors under I's addition
    table add, as groups._generated lists them, and the subgroup they
    generate, sorted: grown from {0} by _grow with empty preimages, one
    addition per member, where _generated multiplies each by every generator."""
    span, gens = {(0,) * width: ()}, []
    for v in vectors:
        if v not in span:
            gens.append(v)
            _grow(span, lambda a, b: _vadd(add, a, b), add, (), (), v)
    return gens, sorted(span)


def _units(i: FiniteGroup, width: int) -> list[tuple[int, ...]]:
    """Each generator of I at each coordinate: generators of I^width."""
    return [(0,) * j + (s,) + (0,) * (width - j - 1) for j in range(width) for s in i._generators]


def _kernel(add, neg, rows, gens) -> tuple[list[tuple[int, ...]], int]:
    """Generators of the vectors of <gens> that every compiled row sends to 0,
    and their index in <gens>, by Schreier's lemma a row at a time: the row's
    image grows over the generators (_grow), and their nonzero Schreier
    elements go on to the next row.  A generator the row sends to 0, as most
    are, is its own (k = 1, preimage 0), kept without _grow's vector sums.
    The index is the product of the image sizes."""
    index, plus = 1, lambda a, b: add[a][b]
    for row in rows:
        if not gens:
            break
        image, kernel = {0: (0,) * len(gens[0])}, []
        for s in gens:
            v = _apply(add, row, s)
            if any(k := _grow(image, plus, add, neg, s, v) if v else s):
                kernel.append(k)
        index *= len(image)
        gens = kernel
    return gens, index


def _kernel_span(add, rows, gens, width: int, name: str) -> list[tuple[int, ...]]:
    """The sorted span of gens, guarded by rows sending each of them to 0."""
    if any(_apply(add, row, v) for row in rows for v in gens):
        raise AssertionError(f"a listed {name} vector is not sent to 0")
    return _coset_generators(add, gens, width)[1]


def _z1_b2(module: RBModule, budget: int):
    """Z1 = ker d1 as sorted value vectors, and B2 = im d1 as {member: a
    preimage} in sorted order, from one compile of d1 and one walk: im d1
    grows (_grow) over the generators of TC^1, and their Schreier elements
    generate Z1.  Guarded by |Z1| |B2| = |TC^1|."""
    i, width = module.I, module.H.order - 1
    size = i.order ** width
    if size > budget:
        raise BudgetError(f"TC^1 space of size {size} exceeds budget {budget}",
                          stage="TC^1", size=size)
    add, rows = i.table, _compile(module, width, _d1_map(module))
    image = {(0,) * len(rows): (0,) * width}
    gens = [_grow(image, lambda a, b: _vadd(add, a, b), add, i.inverses, u,
                  tuple(_apply(add, row, u) for row in rows)) for u in _units(i, width)]
    kernel = _kernel_span(add, rows, gens, width, "Z1")
    if len(kernel) * len(image) != size:
        raise AssertionError("|Z1| times |B2| is not |TC^1|")
    return kernel, dict(sorted(image.items()))


def z1_rbe(module: RBModule, budget: int = DEFAULT_COHOMOLOGY_BUDGET) -> list[Cochain]:
    """Kernel of d1: derivations lambda with lambda(R(h)) = R_I(mu_{R(h)}(lambda(h)))."""
    return [Cochain.from_vector(module, 1, v) for v in _z1_b2(module, budget)[0]]


def z2_rbe(module: RBModule, budget: int = DEFAULT_COHOMOLOGY_BUDGET) -> list[CocyclePair]:
    """All 2-cocycle pairs, sorted by value vector: the kernel of the
    compiled d2 (`_kernel`) over the generators of TC^2, listed as the span
    of its generators; guarded by |Z2| x its index = |TC^2|."""
    i, k1 = module.I, module.H.order - 1
    width = k1 * k1 + k1
    total = i.order ** width
    if total > budget:
        raise BudgetError(
            f"TC^2 space of size {total} exceeds budget {budget}; "
            "membership predicates still work at this size",
            stage="TC^2", size=total,
        )
    rows = _compile(module, width, _d2_map(module))
    gens, index = _kernel(i.table, i.inverses, rows, _units(i, width))
    if len(keys := _kernel_span(i.table, rows, gens, width, "Z2")) * index != total:
        raise AssertionError(f"|Z2| times the index of the kernel is not |I|^{width}")
    return [_pair(module, k) for k in keys]


def b2_rbe(module: RBModule, budget: int = DEFAULT_COHOMOLOGY_BUDGET) -> list[CocyclePair]:
    """Image of d1, sorted by value vector."""
    return [_pair(module, k) for k in _z1_b2(module, budget)[1]]


@dataclass
class H2Result:
    """Second cohomology as canonical coset representatives of Z2 mod B2,
    keeping the sorted Z2 and B2 lists it was computed from."""

    module: RBModule
    z2: list[CocyclePair]
    b2: list[CocyclePair]
    representatives: list[CocyclePair]
    _class_index: dict
    _d1_preimages: dict | None = None  # {B2 key: a 1-cochain's values with d1 = it}
    _z1: list | None = None  # Z1 as sorted value vectors

    @property
    def order_z2(self) -> int:
        return len(self.z2)

    @property
    def order_b2(self) -> int:
        return len(self.b2)

    @property
    def order_h2(self) -> int:
        return len(self.z2) // len(self.b2)

    def class_of(self, pair: CocyclePair) -> CocyclePair:
        """Canonical representative of the coset of a 2-cocycle."""
        key = pair.key()
        rep = self._class_index.get(key)
        if rep is None:
            raise ValueError("pair is not a 2-cocycle of this module")
        return rep

    def to_dict(self) -> dict:
        return {
            "order_Z2": self.order_z2,
            "order_B2": self.order_b2,
            "order_H2": self.order_h2,
            "representatives": [p.to_dict() for p in self.representatives],
        }


def h2_rbe(module: RBModule, budget: int = DEFAULT_COHOMOLOGY_BUDGET) -> H2Result:
    """H2 = Z2/B2 with lexicographically least coset representatives, keeping
    a d1 preimage of each member of B2 and Z1 as sorted value vectors, from
    one compile of d2 and one of d1 (TC^2 refused first, then TC^1)."""
    z2 = z2_rbe(module, budget)
    z1, b2 = _z1_b2(module, budget)  # {B2 member: a d1 preimage}
    z2_keys = [p.key() for p in z2]
    if not set(z2_keys).issuperset(b2):
        raise AssertionError("B2 is not contained in Z2")
    if len(z2) % len(b2) != 0:
        raise AssertionError("|B2| does not divide |Z2|")
    add = module.I.table
    classes = _orbit_classes(z2_keys, lambda k: (_vadd(add, z2_keys[k], b) for b in b2))
    reps = [z2[cls[0]] for cls in classes]  # z2 is sorted, so cls[0] is the least member
    class_index = {z2_keys[k]: rep for rep, cls in zip(reps, classes) for k in cls}
    return H2Result(module, z2, [_pair(module, k) for k in b2], reps, class_index, b2, z1)
