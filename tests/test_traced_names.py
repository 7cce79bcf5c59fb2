"""The benchmark tracer wraps library functions by name; a public rename must
fail here, not first in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_exists(spans):
    missing = [
        f"{layer}.{name}"
        for layer, (module, names) in spans.LAYERS.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_every_traced_cochain_map_exists(spans):
    from rbgroups import cohomology

    missing = [name for name in spans.COCHAIN_MAPS if not callable(getattr(cohomology, name, None))]
    assert missing == []


def test_traced_automorphism_group_keeps_its_constructor_and_elements():
    """The tracer wraps AutomorphismGroup.__init__ and reads .elements."""
    from rbgroups import groups

    assert callable(getattr(groups.AutomorphismGroup, "__init__", None))
    s3 = groups.make_group("S3")
    elements = groups.AutomorphismGroup(s3).elements
    assert isinstance(elements, list) and len(elements) == 6
    assert all(isinstance(f, groups.GroupMap) and f.domain == f.codomain == s3 for f in elements)
