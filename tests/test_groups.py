import itertools
import json

import pytest
from conftest import full_scan_witness, relabelled

from rbgroups.groups import (
    AxiomError,
    BudgetError,
    FiniteGroup,
    GroupMap,
    automorphisms,
    center,
    compose,
    cyclic_basis,
    direct_product,
    endomorphisms,
    enumerate_homomorphisms,
    group_from_dict,
    group_table_witness,
    group_to_dict,
    identity_map,
    inner_automorphism,
    inversion_map,
    is_anti_homomorphism,
    is_bijective,
    is_homomorphism,
    is_normal,
    is_subgroup,
    load_group,
    make_group,
    quotient,
    save_group,
    subgroup_closure,
)


def test_catalog_s3_labels_match_listing(s3):
    assert s3.order == 6
    assert s3.labels == ("e", "(1,2)", "(1,3)", "(2,3)", "(1,2,3)", "(1,3,2)")


def test_catalog_trivial_group():
    z1 = make_group("Z1")
    assert z1.order == 1
    assert z1.identity == 0


def test_catalog_d4_is_dihedral_with_center_two(d4):
    assert d4.order == 8
    zs = center(d4)
    assert [d4.label(z) for z in zs] == ["e", "(1,3)(2,4)"]
    assert sorted(d4.element_order(x) for x in d4.elements()) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_catalog_products_and_bounds():
    v4 = make_group("Z2xZ2")
    assert v4.order == 4 and v4.is_abelian
    with pytest.raises(BudgetError):
        make_group("S5")  # order 120 > default bound
    assert make_group("S5", bound=120).order == 120
    with pytest.raises(ValueError):
        make_group("F17")


def test_group_axiom_witnesses():
    # break associativity but keep the latin-square look: swap two entries
    z3 = make_group("Z3")
    table = [list(r) for r in z3.table]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    kind, w = group_table_witness(table)
    assert kind in ("associativity", "identity", "inverse")
    with pytest.raises(AxiomError):
        FiniteGroup(table)


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[a] + [-1] * (n - 1) for a in range(1, n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, rows))
            return
        a, b = cells[k]
        used = set(rows[a][:b]) | {rows[r][b] for r in range(a)}
        for v in range(n):
            if v not in used:
                rows[a][b] = v
                yield from fill(k + 1)
        rows[a][b] = -1

    return fill(0)


def test_light_test_keeps_the_full_scan_witness_on_every_reduced_latin_square():
    tables = [t for n in range(3, 7) for t in reduced_latin_squares(n)]
    assert len(tables) == 1 + 4 + 56 + 9408
    witnesses = [group_table_witness(t) for t in tables]
    assert witnesses == [full_scan_witness(t) for t in tables]
    assert witnesses.count(None) == 91


CATALOG_UP_TO_36 = (
    [f"Z{n}" for n in range(1, 37)] + [f"D{n}" for n in range(2, 19)]
    + ["S3", "S4", "Q8", "Z2xZ2", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ2xZ2xZ2", "Q8xZ2", "Q8xZ4",
       "D4xZ2", "D4xZ4", "S3xZ2", "S3xZ6", "S3xS3", "Z2xZ2xZ2xZ3", "Z2xZ2xZ4", "Z2xZ2xZ8"]
)


@pytest.mark.parametrize("seed", [None, 1])
def test_light_test_keeps_the_full_scan_witness_on_catalog_groups(seed):
    for name in CATALOG_UP_TO_36:
        g = make_group(name)
        assert g.order <= 36
        table = g.table if seed is None else relabelled(g, seed).table
        assert group_table_witness(table) is None and full_scan_witness(table) is None
        # one swapped pair of entries breaks the group; both must name the same triple
        if g.order > 2:
            broken = [list(row) for row in table]
            broken[1][1], broken[1][2] = broken[1][2], broken[1][1]
            assert group_table_witness(broken) == full_scan_witness(broken)


def test_loader_rejects_bad_identity_and_roundtrips(tmp_path, s3):
    save_group(s3, tmp_path / "s3.json")
    back = load_group(tmp_path / "s3.json")
    assert back.table == s3.table and back.labels == s3.labels
    data = group_to_dict(s3)
    data["identity"] = 1
    with pytest.raises(ValueError):
        group_from_dict(data)
    bad = group_to_dict(s3)
    bad["table"][1][2] = 0  # breaks the group
    with pytest.raises(AxiomError) as err:
        group_from_dict(bad)
    assert err.value.witness is not None


def test_loader_refuses_an_order_above_the_bound_before_the_axiom_check(tmp_path, s3):
    data = group_to_dict(s3)
    data["table"][1][2] = 0  # not a group: the axiom check would raise AxiomError
    with pytest.raises(BudgetError, match="group loaded has order 6 > bound 4"):
        group_from_dict(data, bound=4)
    with pytest.raises(BudgetError, match="group loaded has order 6 > bound 5"):
        make_group(data, bound=5)
    (tmp_path / "bad.json").write_text(json.dumps(data))
    with pytest.raises(BudgetError, match="group bad has order 6 > bound 4"):
        load_group(tmp_path / "bad.json", bound=4)
    with pytest.raises(AxiomError):
        load_group(tmp_path / "bad.json")


@pytest.mark.parametrize("entry", [1.0, True])
def test_loader_rejects_non_integer_table_entries(s3, entry):
    data = group_to_dict(s3)
    data["table"][0][1] = entry  # reads as the right index 1 under int()
    with pytest.raises(ValueError, match=r"Cayley-table entry \(0, 1\) is .*not an integer"):
        group_from_dict(data)


@pytest.mark.parametrize(
    "name,count",
    [("Z1", 1), ("S3", 6), ("Z4", 2)],
)
def test_automorphism_counts_against_brute_force(name, count):
    g = make_group(name)
    auts = automorphisms(g)
    assert len(auts) == count
    # oracle: filter all bijections fixing 0 by the homomorphism law
    brute = set()
    for perm in itertools.permutations(range(1, g.order)):
        f = GroupMap(g, g, (0,) + perm)
        if is_homomorphism(f):
            brute.add(f.images)
    assert {a.images for a in auts.elements} == brute


def test_automorphism_group_is_closed(s3):
    auts = automorphisms(s3)
    idx = {a.images: i for i, a in enumerate(auts.elements)}
    for a in auts.elements:
        for b in auts.elements:
            assert compose(a, b).images in idx
        inv = tuple(sorted(range(s3.order), key=lambda x: a.images[x]))
        assert inv in idx
    assert auts.elements[0].images == tuple(range(s3.order))


def test_endomorphism_count_klein_four():
    v4 = direct_product(make_group("Z2"), make_group("Z2"))
    assert len(endomorphisms(v4)) == 16


# the abelian catalog groups up to Z2xZ2xZ8, less Z2xZ2xZ2xZ2, on which the
# homomorphism search alone takes 2-3 s
ABELIAN = ("Z1", "Z2", "Z5", "Z6", "Z8", "Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ6", "Z4xZ4",
           "Z2xZ2xZ2", "Z2xZ8", "Z2xZ2xZ4", "Z2xZ2xZ2xZ3", "Z2xZ2xZ8")


@pytest.mark.parametrize("name", ABELIAN)
def test_endomorphisms_off_a_cyclic_basis_match_the_search(name):
    for g in (make_group(name), relabelled(make_group(name), 3)):
        assert cyclic_basis(g) is not None
        got = endomorphisms(g)
        assert got == enumerate_homomorphisms(g, g), g.name
        assert all(f.domain is g and f.codomain is g for f in got)


@pytest.mark.parametrize("name", ["Z2xZ4xZ8", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2xZ2xZ2", "Z3xZ3xZ6"])
def test_cyclic_basis_is_a_direct_decomposition(name):
    # the product list of the basis' powers holds every element once
    for g in (make_group(name), relabelled(make_group(name), 1), relabelled(make_group(name), 2)):
        basis = cyclic_basis(g)
        span = [0]
        for b in basis:
            powers = [0]
            while g.table[powers[-1]][b] != 0:
                powers.append(g.table[powers[-1]][b])
            span = [g.table[s][p] for p in powers for s in span]
        assert sorted(span) == list(g.elements()), g.name


def test_cyclic_basis_refuses_non_abelian_groups(s3):
    # <(1,2,3)> and <(1,2)> meet only in e and their product list is all of S3
    assert cyclic_basis(s3) is None
    assert cyclic_basis(make_group("D4xZ2")) is None
    assert endomorphisms(s3) == enumerate_homomorphisms(s3, s3)


def test_center_abelian_is_everything():
    z6 = make_group("Z6")
    assert center(z6) == tuple(z6.elements())


def test_center_s3_trivial(s3):
    assert center(s3) == (0,)


def test_center_is_normal_subgroup(d4):
    zs = center(d4)
    assert is_subgroup(d4, zs) and is_normal(d4, zs)


def test_homomorphism_predicates(s3):
    ident = identity_map(s3)
    assert is_homomorphism(ident) and not is_anti_homomorphism(ident)
    invmap = inversion_map(s3)
    assert is_anti_homomorphism(invmap) and not is_homomorphism(invmap)
    const = GroupMap(s3, s3, (0,) * 6)
    assert is_homomorphism(const) and is_anti_homomorphism(const)
    z6 = make_group("Z6")
    both = identity_map(z6)
    assert is_homomorphism(both) and is_anti_homomorphism(both)


@pytest.mark.parametrize("images,message", [
    ((0, 1, 2), "map is not total on its domain"),
    ((0, 1, 2, 3, 4, 6), "map image out of range"),
    ((0, -1, 2, 3, 4, 5), "map image out of range"),
])
def test_group_map_checks_totality_then_range(s3, images, message):
    with pytest.raises(ValueError, match=message):
        GroupMap(s3, s3, images)
    assert GroupMap(s3, s3, (5, 0, 1, 2, 3, 4)).images == (5, 0, 1, 2, 3, 4)


def test_inner_automorphism_at_identity(s3):
    assert inner_automorphism(s3, 0).images == tuple(s3.elements())
    for g in s3.elements():
        f = inner_automorphism(s3, g)
        assert is_homomorphism(f) and is_bijective(f)


def test_quotient_s3_by_a3(s3):
    a3 = subgroup_closure(s3, [s3.labels.index("(1,2,3)")])
    q, proj = quotient(s3, a3)
    assert q.order == 2
    assert is_homomorphism(proj)
    assert {x for x in s3.elements() if proj.images[x] == 0} == a3
    for a in s3.elements():
        for b in s3.elements():
            assert proj.images[s3.table[a][b]] == q.table[proj.images[a]][proj.images[b]]


def test_quotient_rejects_non_normal(s3):
    h = subgroup_closure(s3, [s3.labels.index("(1,2)")])
    with pytest.raises(ValueError, match="normal"):
        quotient(s3, h)
    with pytest.raises(ValueError, match="subgroup"):
        quotient(s3, [0, 1, 4])


def test_direct_product_layout():
    z2, z3 = make_group("Z2"), make_group("Z3")
    p = direct_product(z2, z3)
    assert p.order == 6
    # (a1,a2) -> a1*3 + a2
    assert p.table[1 * 3 + 2][0 * 3 + 2] == 1 * 3 + (2 + 2) % 3


def test_enumerate_homomorphisms_is_sorted(s3):
    homs = enumerate_homomorphisms(s3, s3)
    assert homs == sorted(homs, key=lambda f: f.images)
    assert len(homs) == 10  # 1 trivial + 3 onto Z2 copies... oracle below
    brute = 0
    for images in itertools.product(range(6), repeat=5):
        f = GroupMap(s3, s3, (0,) + images)
        if is_homomorphism(f):
            brute += 1
    assert brute == len(homs)


def test_automorphisms_budget():
    with pytest.raises(BudgetError):
        automorphisms(make_group("Z6"), bound=3)
