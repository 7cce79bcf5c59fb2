"""Extraction cross-checks on the literal catalog groups.

S3 with R4, Q8 with R1 and D4 with R1 are honest extensions of Z2 by their
cyclic kernels: the projection and inclusion intertwine the operators on the
nose.  Extracting (mu, tau, g) from the literal tables must land in the
2-cocycle set of the induced module, and rebuilding from the extracted pair
must reproduce the group up to a fiber-preserving Rota-Baxter isomorphism.
"""

import itertools

import pytest

from conftest import FIXTURES, all_pairs_wells_report

from rbgroups.groups import (
    GroupMap,
    enumerate_homomorphisms,
    is_homomorphism,
    make_group,
    subgroup_closure,
)
from rbgroups.operators import RotaBaxterOperator, load_operator, rb_witness
from rbgroups.cohomology import RBModule, is_two_cocycle, rb_module_witness
from rbgroups.extensions import (
    Extension,
    build_abelian_extension,
    extract_cocycle,
    extract_triplet,
    st_sections,
)


def as_extension(big, op_file, kernel_gen_label):
    """View (big, R) as an extension of Z2 by its cyclic kernel subgroup."""
    op = load_operator(FIXTURES / op_file, group=big)
    kernel = sorted(subgroup_closure(big, [big.labels.index(kernel_gen_label)]))
    assert all(op.images[x] in set(kernel) for x in kernel)
    k = len(kernel)
    kidx = {e: i for i, e in enumerate(kernel)}
    # the kernel listing is generator-power ordered for these groups, so its
    # induced table is literally the cyclic one
    igroup = make_group(f"Z{k}")
    for a in kernel:
        for b in kernel:
            assert kidx[big.table[a][b]] == igroup.table[kidx[a]][kidx[b]]
    h = make_group("Z2")
    proj = GroupMap(big, h, tuple(0 if x in kidx else 1 for x in big.elements()))
    assert is_homomorphism(proj)
    include = GroupMap(igroup, big, tuple(kernel))
    # R_H is forced by pi R = R_H pi; R_I by restriction
    rh = []
    for hh in h.elements():
        fiber = [x for x in big.elements() if proj.images[x] == hh]
        images = {proj.images[op.images[x]] for x in fiber}
        assert len(images) == 1
        rh.append(images.pop())
    h_rb = RotaBaxterOperator(h, tuple(rh))
    ri = tuple(kidx[op.images[kernel[i]]] for i in range(k))
    # conjugation action through any st-section
    s1 = next(x for x in big.elements() if proj.images[x] == 1)
    action_row = tuple(
        kidx[big.table[big.table[big.inverses[s1]][kernel[y]]][s1]] for y in range(k)
    )
    action = (tuple(igroup.elements()), action_row)
    w = rb_module_witness(h_rb, igroup, ri, action)
    assert w is None, f"module condition does not emerge: {w}"
    module = RBModule(h_rb, igroup, ri, action)
    section = GroupMap(h, big, (0, s1))
    return Extension(
        h_rb=module.hop,
        i_rb=RotaBaxterOperator(module.I, module.ri),
        E=big,
        operator=op,
        include=include,
        project=proj,
        section=section,
    )


CASES = [
    ("S3", "s3/R4.json", "(1,2,3)"),
    ("S3", "s3/R7.json", "(1,2,3)"),
    ("Q8", "q8/R1.json", "(1,2,3,4)(5,6,7,8)"),
    ("Q8", "q8/R2.json", "(1,2,3,4)(5,6,7,8)"),
    ("D4", "d4/R1.json", "(1,2,3,4)"),
]


@pytest.mark.parametrize("gname,op_file,gen", CASES)
def test_literal_extension_extracts_a_cocycle(gname, op_file, gen):
    ext = as_extension(make_group(gname), op_file, gen)
    ext.pair = extract_cocycle(ext)  # asserts 2-cocycle membership internally
    assert is_two_cocycle(ext.module, ext.pair)
    assert extract_triplet(ext).mu == literal_action(ext)


def literal_action(ext):
    """mu_h(y) = s(h)^-1 y s(h), computed here from the literal table; the
    extension's `module` is derived from `extract_triplet`, so comparing
    against it would prove nothing."""
    e, kernel, s = ext.E, ext.include.images, ext.section.images
    return tuple(
        tuple(kernel.index(e.table[e.table[e.inverses[sh]][x]][sh]) for x in kernel)
        for sh in s
    )


@pytest.mark.parametrize("gname,op_file,gen", CASES)
def test_literal_extension_sections_agree_up_to_class(gname, op_file, gen):
    from rbgroups.cohomology import h2_rbe

    ext = as_extension(make_group(gname), op_file, gen)
    ext.pair = extract_cocycle(ext)
    h2 = h2_rbe(ext.module)
    base = h2.class_of(ext.pair)
    for s in st_sections(ext):
        assert h2.class_of(extract_cocycle(ext, s)).key() == base.key()


@pytest.mark.parametrize("gname,op_file,gen", CASES)
def test_rebuild_matches_up_to_rb_isomorphism(gname, op_file, gen):
    big = make_group(gname)
    ext = as_extension(big, op_file, gen)
    pair = extract_cocycle(ext)
    rebuilt = build_abelian_extension(ext.module, pair)
    assert rb_witness(rebuilt.E, rebuilt.operator.images) is None
    # a fiber- and kernel-preserving isomorphism carrying R to R must exist
    found = False
    for f in enumerate_homomorphisms(rebuilt.E, big, bijective_only=True):
        if any(
            f.images[rebuilt.include.images[y]] != ext.include.images[y]
            for y in ext.module.I.elements()
        ):
            continue
        if any(
            ext.project.images[f.images[x]] != rebuilt.project.images[x]
            for x in rebuilt.E.elements()
        ):
            continue
        if all(
            f.images[rebuilt.operator.images[x]] == ext.operator.images[f.images[x]]
            for x in rebuilt.E.elements()
        ):
            found = True
            break
    assert found


@pytest.mark.parametrize("gname,op_file,gen", CASES)
def test_wells_report_is_exact_on_literal_extensions(gname, op_file, gen):
    from rbgroups.wells import check_wells_exactness

    ext = as_extension(make_group(gname), op_file, gen)
    report = check_wells_exactness(ext)
    assert report["exact_at_autI"] and report["exact_at_cmu"]
    assert report["omega_is_derivation"] and report["witnesses"] == []
    assert report["z1_order"] == report["autHI_order"]
    # the builder's carrier of the extracted cocycle gives the same report
    rebuilt = build_abelian_extension(ext.module, extract_cocycle(ext))
    assert check_wells_exactness(rebuilt) == report
    # the derivation law over the generators of C_mu decides it as all pairs do
    assert all_pairs_wells_report(ext) == report


def test_q8_extension_is_non_split():
    # tau extracted from Q8 over Z4 is never a coboundary: j^2 = -1 != e
    ext = as_extension(make_group("Q8"), "q8/R1.json", "(1,2,3,4)(5,6,7,8)")
    pair = extract_cocycle(ext)
    assert not pair.tau.is_zero()
    assert not any(is_homomorphism(s) for s in st_sections(ext))


def circle_action_from_extension(ext, section=None):
    """sigma_h(y) = s(h)' o y o s(h) inside the circle group of (E, R_E)."""
    from rbgroups.operators import circle_table

    if section is None:
        section = ext.section
    e = ext.E
    circ = circle_table(e, ext.operator.images)
    circ_inv = [row.index(0) for row in circ]
    inc_inv = {img: y for y, img in enumerate(ext.include.images)}
    rows = []
    for h in ext.module.H.elements():
        sh = section.images[h]
        row = []
        for y in ext.module.I.elements():
            val = circ[circ[circ_inv[sh]][ext.include.images[y]]][sh]
            assert val in inc_inv, "circle conjugation must preserve the kernel"
            row.append(inc_inv[val])
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("gname,op_file,gen", CASES)
def test_extracted_circle_action_is_admissible(gname, op_file, gen):
    from rbgroups.cohomology import (
        Cochain,
        delta_rb,
        enumerate_cochains,
        partial_rb,
        validate_circle_action,
    )

    ext = as_extension(make_group(gname), op_file, gen)
    sigma = circle_action_from_extension(ext)
    validate_circle_action(ext.module, sigma)  # anti-homo + intertwining
    # section independence
    for s in st_sections(ext):
        assert circle_action_from_extension(ext, s) == sigma
    # the sigma-twisted combined complex squares to zero
    if ext.module.mu_commutes_with_ri():
        for f in enumerate_cochains(ext.module, 1):
            for g in enumerate_cochains(ext.module, 1):
                out = partial_rb(partial_rb((f, g), sigma), sigma)
                assert all(c.is_zero() for c in out)


def test_d4_enumeration_worker_determinism():
    from rbgroups.operators import enumerate_rb_operators

    d4 = make_group("D4")
    base = [op.images for op in enumerate_rb_operators(d4, workers=1)]
    assert [op.images for op in enumerate_rb_operators(d4, workers=4)] == base
