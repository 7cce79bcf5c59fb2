"""The benchmark tracer wraps library functions by name, and its workloads
call the library by name; a public rename or deletion must fail here, not
first in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
LIBRARY_MODULES = ("groups", "operators", "cohomology", "extensions", "wells", "cli")


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


def test_every_library_name_the_benchmark_reads_exists():
    """Every `<module>.<name>` that perfbench reads off a library module."""
    read = {
        (node.value.id, node.attr)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in LIBRARY_MODULES
    }
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if not hasattr(importlib.import_module(f"rbgroups.{module}"), name)]
    assert len(read) >= 16 and missing == []


def test_the_benchmark_keeps_the_module_check_flag_and_coupling_cosets():
    """workloads.py builds `RBModule(..., check=True)`; spans.py sizes the census
    by `Coupling.coset_members`."""
    from rbgroups import cohomology, extensions, groups, operators

    assert "check" in inspect.signature(cohomology.RBModule).parameters
    z2 = groups.make_group("Z2")
    m = cohomology.RBModule(operators.trivial_operator(z2), z2, (0, 0), ((0, 1), (0, 1)),
                            check=True)
    assert m.H == m.I == z2
    alpha = extensions.trivial_coupling(z2, groups.make_group("S3"))
    assert [len(alpha.coset_members(h)) for h in z2.elements()] == [6, 6]
