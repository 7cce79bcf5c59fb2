import itertools
import json
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbgroups.groups import (
    BudgetError,
    GroupMap,
    enumerate_homomorphisms,
    group_from_perms,
    group_table_witness,
    make_group,
    subgroup_closure,
)
from conftest import (
    FIXTURES,
    basis_listing_short_by_one,
    brute_force_operators,
    dfs_inducing_brace,
    fixpoint_operators,
    pairwise_task,
    plain_operators,
    relabelled,
    scan_rb_witness,
    unpruned_propagate,
)
from rbgroups import groups, operators
from rbgroups.operators import (
    RotaBaxterOperator,
    SkewBrace,
    _circle_rows,
    _close,
    _enumerate_task,
    _search_root,
    circle_table,
    enumerate_rb_operators,
    find_rb_inducing_brace,
    identity_operator,
    induced_circle_group,
    induced_skew_brace,
    inversion_operator,
    is_rb_morphism,
    is_rb_operator,
    is_rb_subgroup,
    is_skew_brace,
    load_operator,
    operator_from_dict,
    operator_to_dict,
    rb_morphism_witness,
    rb_operator,
    rb_witness,
    skew_brace_witness,
    trivial_operator,
)


def test_trivial_and_inversion_always_operators(s3, d4, q8):
    for g in (s3, d4, q8, make_group("Z6")):
        assert is_rb_operator(g, trivial_operator(g).images)
        assert is_rb_operator(g, inversion_operator(g).images)


def test_identity_operator_only_on_abelian(s3):
    assert is_rb_operator(make_group("Z4"), identity_operator(make_group("Z4")).images)
    assert not is_rb_operator(s3, identity_operator(s3).images)


def test_witness_is_first_in_canonical_order(s3):
    im = identity_operator(s3).images
    w = rb_witness(s3, im)
    assert w is not None
    x0, y0 = w
    for x in range(x0 + 1):
        rx = im[x]
        for y in range(s3.order if x < x0 else y0):
            z = s3.table[s3.table[s3.table[x][rx]][y]][s3.inverses[rx]]
            assert s3.table[rx][im[y]] == im[z]


def test_r_at_identity_is_forced():
    # enumerate with NO pin at all on tiny groups; R(e) = e must come out
    for name in ("Z2", "Z3", "Z4"):
        g = make_group(name)
        for im in itertools.product(range(g.order), repeat=g.order):
            if rb_witness(g, im) is None:
                assert im[0] == 0


# ---------------------------------------------------------------------------
# the law over the generators of the graph against the pairwise scan
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """fn(*args), or IndexError if it raises one."""
    try:
        return fn(*args)
    except IndexError:
        return IndexError


def assert_law_matches_scan(g, im):
    want = outcome(scan_rb_witness, g, im)
    assert outcome(rb_witness, g, im) == want, im
    assert outcome(is_rb_operator, g, im) == (want if isinstance(want, type) else want is None), im


@pytest.mark.parametrize("name,pinned", [("Z4", False), ("Z2xZ2", False), ("S3", False),
                                         ("Z6", True)])
def test_law_at_generators_matches_the_scan_on_every_map(name, pinned):
    # pinned: only the maps with R(e) = e; else every map, R(e) != e included
    g = make_group(name)
    passed = 0
    for rest in itertools.product(g.elements(), repeat=g.order - 1):
        for first in (0,) if pinned else g.elements():
            im = (first, *rest)
            assert_law_matches_scan(g, im)
            passed += rb_witness(g, im) is None
    assert passed == len(enumerate_rb_operators(g))


@pytest.mark.parametrize("name", ["D4", "Q8"])
def test_law_at_generators_matches_the_scan_on_maps_into_small_subgroups(name):
    # a map into a small subgroup passes more of the checks than most maps:
    # on D4, some of these pass every check of a walk that multiplies the
    # elements found for a later generator by that generator only
    g = make_group(name)
    small = {frozenset(subgroup_closure(g, [a, b])) for a in g.elements() for b in g.elements()}
    for h in sorted(sorted(s) for s in small if 1 < len(s) <= 4):
        for rest in itertools.product(h, repeat=g.order - 1):
            assert_law_matches_scan(g, (0, *rest))


PERTURBED = ["S3", "D4", "Q8", "Z2xZ2xZ2", "D5", "D6", "Z3xS3", "Q8xZ2", "D8", "Z4xZ6", "S4",
             "D12", "S3xZ6", "D18"]


@pytest.mark.parametrize("name", PERTURBED)
@pytest.mark.parametrize("seed", [None, 1])
def test_law_at_generators_matches_the_scan_on_perturbed_operators(name, seed):
    base = make_group(name)
    g = base if seed is None else relabelled(base, seed)
    rng = random.Random(f"{name}/{seed}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ops = enumerate_rb_operators(g, bound=36)
    assert g.order <= 36 and ops
    failed = 0
    for op in ops:
        assert rb_witness(g, op.images) is None and is_rb_operator(g, op)
        for k in (1, 2):  # change one entry, then two
            im = list(op.images)
            for x in rng.sample(range(g.order), k):
                im[x] = rng.randrange(g.order)
            assert_law_matches_scan(g, tuple(im))
            failed += scan_rb_witness(g, im) is not None
    assert failed > 0


@pytest.mark.parametrize("name", ["Z4", "S3", "D4"])
def test_law_refuses_malformed_maps(name):
    # a map that is not total on g or not into g is refused where the law
    # receives it, with RotaBaxterOperator's messages; the scan alone would
    # raise IndexError on a short map, read a long one up to n and wrap a
    # negative image round (-1 is n - 1)
    g = make_group(name)
    n = g.order
    maps = [(), (0,), tuple(range(n - 1)), (0,) * (n - 1), (0,) * (n + 1),
            tuple(range(n)) + (n,), (0,) * (n - 1) + (n,), (n,) + (0,) * (n - 1),
            (0,) * (n - 1) + (-1,), (0, -1) + (0,) * (n - 2), (0,) * (n - 1) + (-n,),
            tuple(g.inverses[:-1]) + (-1,), (0,) * (n - 1) + (-n - 1,)]
    messages = set()
    for im in maps:
        with pytest.raises(ValueError) as want:
            RotaBaxterOperator(g, im)
        messages.add(str(want.value))
        for check in (rb_witness, is_rb_operator, rb_operator):
            with pytest.raises(ValueError) as err:
                check(g, im)
            assert str(err.value) == str(want.value), (check.__name__, im)
    assert messages == {"operator is not total on the group", "operator image out of range"}
    outcomes = {outcome(scan_rb_witness, g, im) for im in maps}
    assert None in outcomes and IndexError in outcomes and len(outcomes) > 2


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3"])
def test_enumeration_matches_brute_force(name):
    g = make_group(name)
    got = [op.images for op in enumerate_rb_operators(g)]
    assert got == brute_force_operators(g)


def test_enumeration_matches_fixpoint_oracle():
    # orders 12-36, past the reach of the brute-force oracle, up to the
    # benchmark's largest inputs; relabelling changes the order in which
    # propagation visits elements
    large = ("S4", "D4xZ2", "D16", "D18", "S3xZ6")
    groups = [make_group(name) for name in ("D6", "Z2xZ6", "D12", "Z2xZ2xZ4", *large)]
    groups += [relabelled(make_group(name), seed) for name in large for seed in (1, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for g in groups:
            want = fixpoint_operators(g)
            got = [op.images for op in enumerate_rb_operators(g, bound=36)]
            assert got == want, g.name
        got = [op.images for op in enumerate_rb_operators(g, bound=36, workers=2)]
        assert got == want


def test_worker_pool_is_capped_at_the_task_count(s3, monkeypatch):
    sizes = []

    class Recorder:  # starts no process: runs the tasks in this one
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
    got = [op.images for op in enumerate_rb_operators(s3, workers=10**4)]
    assert got == brute_force_operators(s3)
    # at a transposition r, A = <conjugation by r, R -> R~> has two orbits
    # on the values of R(r): {e, r} and the other four elements
    root, reps, _ = _search_root(s3)
    assert s3.table[root][root] == 0 and len(reps) == 2
    assert len(sizes) == 1 and sizes[0] <= 2


def z7_by_z3():
    """Z7 x| Z3, the non-abelian group of order 21: x -> x + 1 and x -> 2x on Z7."""
    return group_from_perms([tuple((x + 1) % 7 for x in range(7)),
                             tuple(2 * x % 7 for x in range(7))], 7, "Z7:Z3")


@pytest.mark.parametrize(
    "name, seed",
    [("S4xZ2", None), ("Z9", None), ("Z3xZ3", None), ("Z3xS3", None), ("Z7:Z3", None),
     ("S3", None), ("D5", None), ("S4", None), ("D18", 3), ("S3xZ6", 4)],
)
def test_root_orbit_search_matches_the_plain_search(name, seed):
    # odd orders have no involution, so only conjugation acts; S3, D5 and
    # S4 have a trivial centre.  Z9 and Z3xZ3 are abelian, so they are
    # listed off a cyclic basis; Z7:Z3 keeps an odd order on the search.
    g = z7_by_z3() if name == "Z7:Z3" else make_group(name)
    if seed is not None:
        g = relabelled(g, seed)
    want = plain_operators(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for workers in (1, 2, 3):
            got = [op.images for op in enumerate_rb_operators(g, bound=48, workers=workers)]
            assert got == want, workers


# the enum-sparse and enum-dense groups of perfbench/workloads.py, and three
# groups of odd order, where the root has no involution
CLOSURE_GROUPS = ("S3xZ6", "D18", "D16", "D12", "S4", "D4", "Q8", "S3",
                  "D4xZ2", "Z2xZ2xZ2xZ3", "Z2xZ2xZ4", "Z9", "Z3xZ3", "Z3xS3")


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
def test_generator_closure_matches_the_pairwise_search(name):
    # same list in the same order: the closure under the branch generators
    # fixes the same elements and refutes the same branches as closing
    # every pair; the root's reps and every value at the root
    for g in (make_group(name), relabelled(make_group(name), 11)):
        root, reps, _ = _search_root(g)
        for values in (reps, range(g.order)):
            task = (g.table, g.inverses, root, values)
            assert _enumerate_task(task) == pairwise_task(task), (g.name, values)


@pytest.mark.parametrize("name", ["S3", "Z6", "Z2xZ2"])
def test_operators_are_the_maps_whose_graph_is_a_subgroup(name):
    # graph lemma: R is an operator iff {(x R(x), R(x))} is closed under the
    # product of G x G, iff the subgroup it generates meets the diagonal
    # only in (e, e); pairs (a, b) are coded a * n + b
    g = make_group(name)
    n, table = g.order, g.table
    mul = [[table[p // n][q // n] * n + table[p % n][q % n] for q in range(n * n)]
           for p in range(n * n)]
    for rest in itertools.product(range(n), repeat=n - 1):
        im = (0,) + rest
        graph = {table[x][im[x]] * n + im[x] for x in g.elements()}
        closed = all(mul[p][q] in graph for p in graph for q in graph)
        span, frontier = {0}, [0]
        while frontier:
            frontier = [q for p in frontier for q in (mul[p][t] for t in graph) if q not in span]
            span.update(frontier)
        trivial_diagonal = not any(p // n == p % n for p in span if p)
        assert (rb_witness(g, im) is None) == closed == trivial_diagonal, im


def test_enumeration_guard_checks_the_least_operator(s3, monkeypatch):
    from rbgroups import operators

    for name in ("D4xZ2", "S3xZ6"):
        g = make_group(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            least = enumerate_rb_operators(g, bound=36)[0]
        assert rb_witness(g, least.images) is None
    # a search that returned a map breaking the law is refused, naming the pair
    ident = identity_operator(s3).images
    monkeypatch.setattr(operators, "_enumerate_task", lambda task: [ident])
    with pytest.raises(AssertionError, match=re.escape(f"(x, y) = {rb_witness(s3, ident)}")):
        enumerate_rb_operators(s3)


def test_enumeration_guard_refuses_a_corrupted_table_the_closure_built(d4, monkeypatch):
    from rbgroups import operators

    close, corrupted = operators._close, []

    def corrupting(*args):
        closed = close(*args)
        last = closed[-1]
        bad = last[:-1] + ((last[-1] + 1) % d4.order,)
        assert rb_witness(d4, bad) is not None and bad not in closed
        # the least table is R = e, which every group passes
        assert min(closed) == trivial_operator(d4).images
        corrupted.append(bad)
        return closed[:-1] + [bad]

    monkeypatch.setattr(operators, "_close", corrupting)
    with pytest.raises(AssertionError, match="fails the law") as err:
        enumerate_rb_operators(d4)
    assert f"(x, y) = {rb_witness(d4, corrupted[0])}" in str(err.value)


def test_circle_rows_are_the_circle_products():
    for g in (make_group("S3xZ6"), relabelled(make_group("D18"), 5)):
        table, inv = g.table, g.inverses
        want = [
            [tuple(table[t][inv[r]] for t in table[x_row[r]]) for r in g.elements()]
            for x_row in table
        ]
        assert _circle_rows(table, inv, [range(g.order)] * g.order) == want
        # restricted domains: the rows inside each domain are the full rows,
        # and every entry outside it is None
        for step in (2, 3, 5):
            domains = [[v for v in g.elements() if (x + v) % step == 0] for x in g.elements()]
            rows = _circle_rows(table, inv, domains)
            assert [len(row) for row in rows] == [g.order] * g.order
            for x, (row, domain) in enumerate(zip(rows, domains)):
                assert [row[v] for v in domain] == [want[x][v] for v in domain]
                assert all(row[v] is None for v in g.elements() if v not in domain)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "D6", "S4", "D4xZ2"])
def test_operator_sets_are_closed_under_conjugation_and_tilde(name):
    g = make_group(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ops = {op.images for op in enumerate_rb_operators(g, bound=24)}
    table, inv = g.table, g.inverses
    conj = [[g.conj(c, x) for x in g.elements()] for c in g.elements()]
    for im in ops:
        assert tuple(table[inv[x]][im[inv[x]]] for x in g.elements()) in ops
        for c in g.elements():
            p, back = conj[c], conj[inv[c]]
            assert tuple(p[im[back[x]]] for x in g.elements()) in ops


@pytest.mark.parametrize("name", ["S4", "D4xZ2"])
def test_operators_made_by_the_closure_satisfy_the_law(name):
    g = make_group(name)
    root, reps, _ = _search_root(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        made = [op.images for op in enumerate_rb_operators(g, bound=24)
                if op.images[root] not in reps]
    assert made
    assert all(rb_witness(g, im) is None for im in made)


def test_symmetry_guards_refuse_bad_moves(s3):
    root, _, moves = _search_root(s3)
    zero = trivial_operator(s3).images
    assert _close(s3, root, moves, [zero]) == [zero, s3.inverses]
    outside = next(c for c in s3.elements() if s3.conj(c, root) != root)
    with pytest.raises(AssertionError, match="does not fix"):
        _close(s3, root, [(0, 0, 0), (1, outside, 0)], [])
    three_cycle = next(x for x in s3.elements() if s3.element_order(x) == 3)
    with pytest.raises(AssertionError, match="involution"):
        _close(s3, three_cycle, [(0, 0, 0), (0, 0, 1)], [])
    with pytest.raises(AssertionError, match="repeated"):
        _close(s3, root, moves, [zero, zero])


def test_enumeration_is_duplicate_free_and_sorted(d4):
    ops = [op.images for op in enumerate_rb_operators(d4)]
    assert ops == sorted(set(ops))


def test_enumeration_contains_trivial_and_inversion(s3, d4, q8):
    for g in (s3, d4, q8):
        ims = {op.images for op in enumerate_rb_operators(g)}
        assert trivial_operator(g).images in ims
        assert inversion_operator(g).images in ims


def test_s3_has_eight_operators(s3):
    assert len(enumerate_rb_operators(s3)) == 8


def test_q8_has_eight_operators(q8):
    assert len(enumerate_rb_operators(q8)) == 8


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z2xZ2", "Z6"])
def test_abelian_operators_are_exactly_endomorphisms(name):
    # the operator search and the homomorphism search, neither of which
    # uses the cyclic basis
    g = make_group(name)
    endos = [f.images for f in enumerate_homomorphisms(g, g)]
    assert plain_operators(g) == endos
    assert [op.images for op in enumerate_rb_operators(g)] == endos


ABELIAN_ORACLE_GROUPS = ("Z2xZ4", "Z3xZ3", "Z4xZ4", "Z2xZ6", "Z2xZ2xZ4", "Z2xZ2xZ2xZ3",
                         "Z2xZ2xZ8", "Z2xZ2xZ2xZ2")


@pytest.mark.parametrize("name", ABELIAN_ORACLE_GROUPS)
def test_abelian_listing_matches_the_plain_search(name):
    base = make_group(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for g in (base, relabelled(base, 1), relabelled(base, 2)):
            want = plain_operators(g)
            for workers in (1, 2, 3):
                got = [op.images for op in enumerate_rb_operators(g, bound=32, workers=workers)]
                assert got == want, (g.name, workers)


def test_abelian_groups_without_a_basis_are_searched(monkeypatch):
    from rbgroups import operators

    monkeypatch.setattr(operators, "cyclic_basis", lambda g: None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for g in (make_group("Z3xZ3"), make_group("Z2xZ2xZ4"), relabelled(make_group("Z2xZ6"), 1)):
            want = plain_operators(g)
            for workers in (1, 2, 3):
                got = [op.images for op in enumerate_rb_operators(g, workers=workers)]
                assert got == want, (g.name, workers)


def test_abelian_listing_guards_its_count(monkeypatch):
    from rbgroups import operators

    # the listing one table short, inside the function that lists it
    monkeypatch.setattr(operators, "basis_endomorphisms", basis_listing_short_by_one())
    # Z2xZ4: the gcd(m_i, m_j) over m = (4, 2) multiply to 4 * 2 * 2 * 2 = 32
    with pytest.raises(AssertionError, match="listed 31 endomorphisms, not 32"):
        enumerate_rb_operators(make_group("Z2xZ4"))


def test_worker_counts_agree(s3, q8):
    # 3 and 5 workers split the root values into chunks of unequal size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for g in (s3, q8, make_group("D4xZ2")):
            base = [op.images for op in enumerate_rb_operators(g, workers=1)]
            for w in (2, 3, 4, 5):
                assert [op.images for op in enumerate_rb_operators(g, workers=w)] == base


def test_enumeration_bound():
    with pytest.raises(BudgetError) as err:
        enumerate_rb_operators(make_group("Z6"), bound=4)
    assert str(err.value) == "enumeration bound exceeded: |G| = 6 > 4"
    assert (err.value.stage, err.value.size) == ("enumeration", 6)


def test_trivial_group_enumeration():
    z1 = make_group("Z1")
    ops = enumerate_rb_operators(z1)
    assert len(ops) == 1 and ops[0].images == (0,)


def test_circle_group_of_trivial_operator(s3):
    circ = induced_circle_group(s3, trivial_operator(s3))
    assert circ.table == s3.table


def test_circle_group_of_inversion_is_opposite(s3):
    circ = induced_circle_group(s3, inversion_operator(s3))
    assert circ.table == tuple(
        tuple(s3.table[y][x] for y in s3.elements()) for x in s3.elements()
    )


def test_circle_group_verified_for_all_enumerated(s3):
    for op in enumerate_rb_operators(s3):
        circ = induced_circle_group(s3, op)  # construction re-checks axioms
        assert circ.order == s3.order and circ.identity == 0


def test_induced_brace_always_valid(s3, d4):
    for g in (s3, d4):
        for op in enumerate_rb_operators(g):
            brace = induced_skew_brace(g, op)
            assert is_skew_brace(brace)


def test_trivial_brace_both_operations_equal(s3):
    brace = induced_skew_brace(s3, trivial_operator(s3))
    assert brace.add == brace.circ


def test_skew_brace_compatibility_reduces_to_group_law(s3):
    brace = SkewBrace(s3.order, s3.table, s3.table)
    assert is_skew_brace(brace)


def test_skew_brace_witness_on_violation():
    z4 = make_group("Z4")
    klein = make_group("Z2xZ2")
    brace = SkewBrace(4, z4.table, klein.table)
    w = skew_brace_witness(brace)
    if w is not None:
        kind, triple = w
        assert kind == "compatibility" and len(triple) == 3
    # brute-force cross-check of the verdict
    add, circ = z4.table, klein.table
    neg = tuple(row.index(0) for row in add)
    violated = any(
        circ[a][add[b][c]] != add[add[circ[a][b]][neg[a]]][circ[a][c]]
        for a in range(4)
        for b in range(4)
        for c in range(4)
    )
    assert violated == (w is not None)


def test_skew_brace_witness_on_broken_table(s3):
    table = [list(r) for r in s3.table]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    w = skew_brace_witness(SkewBrace(6, tuple(map(tuple, table)), s3.table))
    assert w is not None and w[0].startswith("add:")


def test_rb_morphism_identity(s3):
    for op in enumerate_rb_operators(s3)[:3]:
        assert is_rb_morphism(GroupMap(s3, s3, tuple(s3.elements())), op, op)


def test_rb_morphism_inclusion_a3_under_r7(s3):
    # R7 = inversion; A3 is invariant and the restriction is inversion on A3
    a3_elems = sorted(subgroup_closure(s3, [s3.labels.index("(1,2,3)")]))
    z3 = make_group("Z3")
    # map Z3 -> S3 sending k to (1,2,3)^k
    images = tuple(a3_elems[0] if k == 0 else 0 for k in range(3))
    gen = s3.labels.index("(1,2,3)")
    images = (0, gen, s3.table[gen][gen])
    inc = GroupMap(z3, s3, images)
    r7 = inversion_operator(s3)
    restriction = RotaBaxterOperator(z3, tuple(z3.inverses))
    assert is_rb_morphism(inc, restriction, r7)


def test_rb_morphism_witness(s3):
    z2 = make_group("Z2")
    a3 = subgroup_closure(s3, [s3.labels.index("(1,2,3)")])
    proj = GroupMap(s3, z2, tuple(0 if x in a3 else 1 for x in s3.elements()))
    # R1 on S3 vs identity operator on Z2: pi R1 sends transpositions to
    # pi((2,3)) = 1 but R_H pi sends them to 1 as well iff R_H = id; use zero
    r1 = load_operator(FIXTURES / "s3" / "R1.json")
    zero = RotaBaxterOperator(z2, (0, 0))
    w = rb_morphism_witness(proj, r1, zero)
    assert w is not None
    with pytest.raises(ValueError, match="homomorphism"):
        is_rb_morphism(GroupMap(s3, z2, (0, 1, 1, 1, 1, 0)), r1, zero)


def test_rb_subgroup_checks(s3):
    r4 = load_operator(FIXTURES / "s3" / "R4.json")
    assert is_rb_subgroup(s3, r4, [0])
    a3 = subgroup_closure(s3, [s3.labels.index("(1,2,3)")])
    assert is_rb_subgroup(s3, r4, a3)
    gen12 = subgroup_closure(s3, [s3.labels.index("(1,2)")])
    assert not is_rb_subgroup(s3, r4, gen12)  # R4(1,2) = (1,3,2) leaves it
    with pytest.raises(ValueError, match="subgroup"):
        is_rb_subgroup(s3, r4, [0, 4])


def test_find_rb_inducing_brace_trivial():
    z2 = make_group("Z2")
    brace = SkewBrace(2, z2.table, z2.table)
    op = find_rb_inducing_brace(brace)
    assert op is not None
    assert circle_table(z2, op.images) == z2.table


def test_find_rb_inducing_brace_roundtrip(s3):
    r4 = load_operator(FIXTURES / "s3" / "R4.json")
    brace = induced_skew_brace(s3, r4)
    op = find_rb_inducing_brace(brace)
    assert op is not None
    assert circle_table(s3, op.images) == brace.circ


def test_find_rb_inducing_brace_none_case():
    # Klein four additive with cyclic circ: a brace only if some R induces it;
    # record the outcome honestly, whatever it is
    v4, z4 = make_group("Z2xZ2"), make_group("Z4")
    brace = SkewBrace(4, v4.table, z4.table)
    if skew_brace_witness(brace) is None:
        op = find_rb_inducing_brace(brace)
        if op is not None:
            assert circle_table(v4, op.images) == z4.table
        else:
            assert op is None
    else:
        with pytest.raises(ValueError):
            find_rb_inducing_brace(brace)


def brace_outcome(search, brace, **kwargs):
    """The table found, None, or the exception's type and text."""
    try:
        op = search(brace, **kwargs)
    except (ValueError, BudgetError) as err:
        return (type(err).__name__, str(err))
    return None if op is None else op.images


@pytest.mark.parametrize(
    "name",
    ["S3", "D4", "Q8", "D5", "D6", "S4", "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z2xZ6"],
)
def test_brace_search_matches_the_dfs_oracle(name):
    g = make_group(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ops = enumerate_rb_operators(g, bound=g.order)
    for op in ops:
        brace = induced_skew_brace(g, op)
        want = brace_outcome(dfs_inducing_brace, brace, bound=g.order)
        assert want is not None
        assert brace_outcome(find_rb_inducing_brace, brace, bound=g.order) == want
    if g.order > 16:  # the default bound refuses both searches alike
        brace = induced_skew_brace(g, ops[0])
        want = brace_outcome(dfs_inducing_brace, brace)
        assert want[0] == "BudgetError"
        assert brace_outcome(find_rb_inducing_brace, brace) == want


def test_brace_search_matches_the_dfs_oracle_off_the_induced_braces():
    v4, z4 = make_group("Z2xZ2"), make_group("Z4")
    pairs = [SkewBrace(4, v4.table, z4.table), SkewBrace(4, z4.table, v4.table)]
    # (Z4, +) with a o b = a + (-1)^a b: a skew brace whose lambda maps are
    # not inner, so no operator induces it
    pairs.append(SkewBrace(4, z4.table, tuple(
        tuple((a + (-1) ** a * b) % 4 for b in range(4)) for a in range(4))))
    outcomes = []
    for brace in pairs:
        want = brace_outcome(dfs_inducing_brace, brace)
        assert brace_outcome(find_rb_inducing_brace, brace) == want
        outcomes.append(want)
    assert outcomes[2] is None


def test_operator_serialization_roundtrip(tmp_path, s3):
    op = load_operator(FIXTURES / "s3" / "R4.json")
    data = operator_to_dict(op, group_name="S3")
    assert data["group"] == "S3"
    back = operator_from_dict(json.loads(json.dumps(data)))
    assert back.images == op.images
    inline = operator_to_dict(op)
    assert isinstance(inline["group"], dict)
    assert operator_from_dict(inline).images == op.images
    with pytest.raises(ValueError):
        operator_from_dict({"group": "S3", "images": [0, 0]})


def test_operator_construction_checks_length_and_range(s3):
    RotaBaxterOperator(s3, (0, 5, 0, 0, 0, 0))
    for images, message in (((0,) * 5, "operator is not total on the group"),
                            ((0,) * 7, "operator is not total on the group"),
                            ((0, 1, -1, 0, 0, 0), "operator image out of range"),
                            ((0, 1, 2, 6, 0, 0), "operator image out of range")):
        with pytest.raises(ValueError) as err:
            RotaBaxterOperator(s3, images)
        assert str(err.value) == message


def test_rb_operator_factory_raises_with_witness(s3):
    with pytest.raises(ValueError, match="fails at"):
        rb_operator(s3, identity_operator(s3).images)


@pytest.mark.parametrize("name", ["S3", "D4", "Z6"])
def test_operator_objects_and_their_images_are_read_alike(name):
    # is_rb_operator, rb_witness and rb_operator share one normalization
    g = make_group(name)
    for op in (trivial_operator(g), inversion_operator(g), identity_operator(g)):
        want = scan_rb_witness(g, op.images)
        for arg in (op, op.images):
            assert rb_witness(g, arg) == want
            assert is_rb_operator(g, arg) == (want is None)
            if want is None:
                assert rb_operator(g, arg).images == op.images
            else:
                with pytest.raises(ValueError, match=re.escape(f"fails at (x, y) = {want}")):
                    rb_operator(g, arg)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=6, max_size=6))
def test_random_maps_consistent_with_witness(images):
    g = make_group("S3")
    im = tuple(images)
    verdict = is_rb_operator(g, im)
    if verdict:
        assert group_table_witness(circle_table(g, im)) is None
        assert is_skew_brace(induced_skew_brace(g, RotaBaxterOperator(g, im)))


def test_brace_morphism_vs_rb_morphism_search(s3):
    # experiment hook: every RB morphism is a brace morphism; the converse can
    # fail.  Search endomorphism candidates of S3 under each operator pair and
    # record the outcome without asserting a specific counterexample.
    from rbgroups.groups import endomorphisms
    from rbgroups.operators import is_brace_morphism

    ops = enumerate_rb_operators(s3)
    braces = {op.images: induced_skew_brace(s3, op) for op in ops}
    forward_holds = True
    converse_fails_somewhere = False
    for op1 in ops:
        for op2 in ops:
            for f in endomorphisms(s3):
                rb = all(
                    f.images[op1.images[x]] == op2.images[f.images[x]]
                    for x in s3.elements()
                )
                brace = is_brace_morphism(
                    f.images, braces[op1.images], braces[op2.images]
                )
                if rb and not brace:
                    forward_holds = False
                if brace and not rb:
                    converse_fails_somewhere = True
    assert forward_holds
    # no claim about the converse; just record what the search found
    print(f"brace-but-not-RB morphism found on S3: {converse_fails_somewhere}")


def test_soft_warning_above_twelve():
    z13 = make_group("Z13")
    with pytest.warns(UserWarning, match="order 13"):
        ops = enumerate_rb_operators(z13)
    assert len(ops) == 13  # endomorphisms of a cyclic group of prime order


def test_enumeration_regressions_at_larger_orders():
    # frozen outputs of the validated enumerator (abelian entries are
    # independently forced by the endomorphism counts)
    import warnings

    expected = {"D6": 80, "Z2xZ6": 48, "D8": 136, "Z16": 16, "Z4xZ4": 256}
    for name, count in expected.items():
        g = make_group(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert len(enumerate_rb_operators(g)) == count
        if g.is_abelian:
            assert count == len(enumerate_homomorphisms(g, g))


def test_brace_roundtrip_for_every_s3_operator(s3):
    for op in enumerate_rb_operators(s3):
        brace = induced_skew_brace(s3, op)
        back = find_rb_inducing_brace(brace)
        assert back is not None
        assert circle_table(s3, back.images) == brace.circ


def test_rb_law_is_circle_homomorphism_property(s3, q8):
    # R is Rota-Baxter exactly when R: (G, o_R) -> (G, .) is a homomorphism;
    # this is what the enumeration propagates on
    from rbgroups.groups import GroupMap, is_homomorphism
    from rbgroups.operators import induced_circle_group

    for g in (s3, q8):
        for op in enumerate_rb_operators(g):
            circ = induced_circle_group(g, op)
            assert is_homomorphism(GroupMap(circ, g, op.images))


@pytest.mark.parametrize("name", ["D18", "S3xZ6"])
def test_lagrange_prune_cuts_branches_and_keeps_the_operators(name, monkeypatch):
    # a branch whose fixed set cannot divide |G| fails before the law does
    g = make_group(name)

    def search(propagate):
        calls = []

        def counted(*args):
            calls.append(1)
            return propagate(*args)

        monkeypatch.setattr(groups, "_propagate", counted)
        monkeypatch.setattr(operators, "_propagate", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = operators._operator_rows(g, g.order, 1)
        return rows, len(calls)

    pruned, pruned_calls = search(groups._propagate)
    plain, plain_calls = search(unpruned_propagate)
    assert pruned == plain
    assert pruned_calls < plain_calls
