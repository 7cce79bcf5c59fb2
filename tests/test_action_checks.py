"""The four callers of the action checks keep their witnesses and messages.

`rb_module_witness`, `validate_circle_action`, `verify_triplet` (through its
mu check) and `build_split_extension` all ask whether a family of maps is a
family of automorphisms of I and, for three of them, an anti-homomorphism.
Each reports a failure in its own words; these tests pin those words.
"""

import itertools
import random

import pytest
from conftest import anti_actions, scan_action_witness

from rbgroups.cohomology import (
    RBModule,
    rb_module_witness,
    trivial_action,
    validate_circle_action,
)
from rbgroups.extensions import ExtensionError, Triplet, build_split_extension, verify_triplet
from rbgroups.groups import action_witness, automorphisms, make_group
from rbgroups.operators import RotaBaxterOperator

Z3_ID, Z3_INV, Z3_ZERO = (0, 1, 2), (0, 2, 1), (0, 0, 0)
Z4_SWAP = (0, 3, 1, 2)  # a bijection fixing 0 that is not additive


def z3_over(hname, rh=None):
    h = make_group(hname)
    return RotaBaxterOperator(h, rh if rh is not None else (0,) * h.order), make_group("Z3")


def test_action_witness_kinds():
    z2, z3, z4 = make_group("Z2"), make_group("Z3"), make_group("Z4")
    assert action_witness(z3, (Z3_ID, Z3_INV), z2.table) is None
    assert action_witness(z3, (Z3_ID, Z3_ZERO)) == ("bijective", (1,))
    assert action_witness(z3, (Z3_ID, (0, 1, 3))) == ("bijective", (1,))
    assert action_witness(z3, (Z3_ID, (0, 1))) == ("bijective", (1,))
    assert action_witness(z4, ((0, 1, 2, 3), Z4_SWAP)) == ("endomorphism", (1, 1, 1))
    assert action_witness(z3, (Z3_ID, Z3_INV, Z3_INV), z3.table) == (
        "anti-homomorphism", (1, 1))
    # without the acting group's table only the automorphisms are checked
    assert action_witness(z3, (Z3_ID, Z3_INV, Z3_INV)) is None


def test_module_witness_pins_action_kinds():
    hop, z3 = z3_over("Z2")
    assert rb_module_witness(hop, z3, Z3_ID, (Z3_ID,)) == ("action-shape", ())
    assert rb_module_witness(hop, z3, Z3_ZERO, (Z3_ID, Z3_ZERO)) == ("action-bijective", (1,))
    z4 = make_group("Z4")
    assert rb_module_witness(hop, z4, (0, 0, 0, 0), ((0, 1, 2, 3), Z4_SWAP)) == (
        "action-endomorphism", (1, 1, 1))
    hop3, z3 = z3_over("Z3")
    action = (Z3_ID, Z3_INV, Z3_INV)
    assert rb_module_witness(hop3, z3, Z3_ZERO, action) == ("action-anti-homomorphism", (1, 1))
    with pytest.raises(ValueError) as err:
        RBModule(hop3, z3, Z3_ZERO, action)
    assert str(err.value) == "not a Rota-Baxter module: action-anti-homomorphism fails at (1, 1)"


def test_circle_action_pins_messages():
    hop, z3 = z3_over("Z3")
    m = RBModule(hop, z3, Z3_ID, trivial_action(hop.group, z3))
    with pytest.raises(ValueError) as err:
        validate_circle_action(m, (Z3_ID, Z3_ZERO, Z3_ID))
    assert str(err.value) == "sigma_1 is not an automorphism of I"
    with pytest.raises(ValueError) as err:
        validate_circle_action(m, (Z3_ID, Z3_INV, Z3_INV))
    assert str(err.value) == "sigma is not anti-homomorphic at (1, 1)"
    with pytest.raises(ValueError) as err:
        validate_circle_action(m, (Z3_ID,))
    assert str(err.value) == "circle action has wrong length"


def zero_triplet(mu, nh):
    return Triplet(mu, tuple((0,) * nh for _ in range(nh)), (0,) * nh)


def test_verify_triplet_pins_mu_witnesses():
    hop, z3 = z3_over("Z2")
    i_rb = RotaBaxterOperator(z3, Z3_ZERO)
    assert verify_triplet(zero_triplet((Z3_INV, Z3_INV), 2), hop, i_rb) == (
        "structural", "mu at identity is not id")
    assert verify_triplet(zero_triplet((Z3_ID, Z3_ZERO), 2), hop, i_rb) == (
        "structural", "mu_1 is not an automorphism")
    # mu need not be anti-homomorphic in a triplet, only the group law matters
    hop3, _ = z3_over("Z3")
    assert verify_triplet(zero_triplet((Z3_ID, Z3_INV, Z3_INV), 3), hop3, i_rb)[0] != "structural"


def test_verify_triplet_reports_out_of_range_mu_as_structural():
    hop, z3 = z3_over("Z2")
    i_rb = RotaBaxterOperator(z3, Z3_ZERO)
    for row in ((0, 1, 3), (0, 1), (0, 1, 2, 0)):
        assert verify_triplet(zero_triplet((Z3_ID, row), 2), hop, i_rb) == (
            "structural", "mu_1 is not an automorphism")


def test_split_builder_pins_messages():
    hop, z3 = z3_over("Z2")
    i_rb = RotaBaxterOperator(z3, Z3_ZERO)
    with pytest.raises(ValueError) as err:
        build_split_extension(hop, i_rb, (Z3_ID, Z3_ZERO), (0, 0))
    assert not isinstance(err.value, ExtensionError)
    assert str(err.value) == "mu_1 is not an automorphism of I"
    hop3, _ = z3_over("Z3")
    with pytest.raises(ValueError) as err:
        build_split_extension(hop3, i_rb, (Z3_ID, Z3_INV, Z3_INV), (0, 0, 0))
    assert str(err.value) == "mu is not an anti-homomorphism at (1, 1)"
    with pytest.raises(ValueError) as err:
        build_split_extension(hop, i_rb, (Z3_ID, Z3_INV), (1, 0))
    assert str(err.value) == "g must send the identity to the identity"


@pytest.mark.parametrize("iname", ["Z2xZ2", "Z4", "S3", "D4", "Q8"])
def test_action_witness_at_generators_matches_the_scan(iname):
    i, z2 = make_group(iname), make_group("Z2")
    identity = tuple(i.elements())
    for hname in ("Z2", "Z3"):
        h = make_group(hname)
        for action in anti_actions(h, i):
            assert action_witness(i, action, h.table) == scan_action_witness(i, action, h.table)
    kinds = set()
    for f in automorphisms(i).elements:  # two images swapped
        for a, b in itertools.combinations(i.elements(), 2):
            row = list(f.images)
            row[a], row[b] = row[b], row[a]
            maps = (identity, tuple(row))
            want = scan_action_witness(i, maps, z2.table)
            assert action_witness(i, maps, z2.table) == want
            kinds.add(want and want[0])
    rng = random.Random(iname)
    for _ in range(100):  # bijections, most of them not homomorphic
        row = list(identity)
        rng.shuffle(row)
        maps = (identity, tuple(row))
        assert action_witness(i, maps, z2.table) == scan_action_witness(i, maps, z2.table)
    assert "endomorphism" in kinds
