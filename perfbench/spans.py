"""Spans around the calls into each layer of rbgroups, and the per-layer
metrics derived from them.

The tracer wraps each layer's public functions at their module attributes,
including the names another layer imports (such as
`rbgroups.extensions.group_table_witness` or `rbgroups.wells.h2_rbe`), so
nested calls give nested spans without touching the library.  The cochain
maps are wrapped only where other layers import them: their calls from inside
`cohomology` are per-candidate brute force, counted as the caller's self time.

A span is (name, start, end, parent span index, job name).  A layer's self
time is the summed duration of its spans minus the time their child spans
cover.  Counters are taken at the same boundaries; the ones marked
"computed" are derived from input sizes, not measured.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from rbgroups import cli, cohomology, extensions, groups, operators, wells

LAYERS = {
    "groups": (groups, ("make_group", "load_group", "group_table_witness",
                        "endomorphisms", "automorphisms")),
    "operators": (operators, ("enumerate_rb_operators", "rb_witness",
                              "induced_circle_group", "induced_skew_brace")),
    "cohomology": (cohomology, ("rb_module_witness", "is_rb_module",
                                "z1_rbe", "z2_rbe", "b2_rbe", "h2_rbe")),
    "extensions": (extensions, ("build_abelian_extension", "build_triplet_extension",
                                "build_split_extension", "verify_triplet",
                                "are_equivalent", "triplets_equivalent",
                                "classify_abelian", "h2_alpha", "central_action",
                                "trivial_coupling")),
    "wells": (wells, ("check_wells_exactness", "rb_automorphisms", "aut_I", "aut_HI",
                      "c_mu", "wells_map", "z1_iso_check")),
}
COCHAIN_MAPS = ("delta", "partial", "phi1", "phi2", "d1_rbe", "d2_rbe")
MODULES = (groups, operators, cohomology, extensions, wells, cli, sys.modules["rbgroups"])
EQUIV = ("extensions.are_equivalent", "extensions.triplets_equivalent")
BUILDS = ("extensions.build_abelian_extension", "extensions.build_triplet_extension",
          "extensions.build_split_extension")
REPORT = "wells.check_wells_exactness"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = None
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []  # [span index, time covered by children]
        self.active: Counter = Counter()
        self._patches: list = []

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(tracer.spans), 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(frame)
            tracer.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.active[name] -= 1
                tracer._stack.pop()
                tracer.self_time[name] += end - start - frame[1]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans[frame[0]] = (name, start, end, parent, tracer.job)
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        counters = _counters()
        for layer, (module, names) in LAYERS.items():
            for fname in names:
                self._patch_everywhere(getattr(module, fname), f"{layer}.{fname}",
                                       counters.get(f"{layer}.{fname}"), MODULES)
        outside = tuple(m for m in MODULES if m not in (cohomology, sys.modules["rbgroups"]))
        for fname in COCHAIN_MAPS:
            self._patch_everywhere(getattr(cohomology, fname), f"cohomology.{fname}",
                                   None, outside)
        self._patch(groups.AutomorphismGroup, "__init__",
                    self.wrap("groups.AutomorphismGroup", groups.AutomorphismGroup.__init__,
                              counters["groups.AutomorphismGroup"]))
        self._patch(cli, "main", self._wrap_cli_main(self.wrap("cli.main", cli.main)))

    def _patch_everywhere(self, fn, name: str, count, modules) -> None:
        traced = self.wrap(name, fn, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, traced)

    def _wrap_cli_main(self, traced_main):
        """cli.bytes_out: what main writes to the stdout the benchmark captures."""
        tracer = self

        @functools.wraps(traced_main)
        def main(argv=None):
            before = sys.stdout.tell()
            try:
                return traced_main(argv)
            finally:
                tracer.counts["cli.bytes_out"] += sys.stdout.tell() - before

        return main

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def layer_self(self, layer: str) -> float:
        return sum((t for name, t in self.self_time.items() if name.startswith(layer + ".")), 0.0)

    def metrics(self) -> dict[str, float]:
        c, calls, own = self.counts, self.calls, self.self_time
        reports = calls[REPORT]
        tc2 = c["cohomology.tc2_space"]
        candidates = c["extensions.triplet_candidates"]
        return {
            "groups.self_s": self.layer_self("groups"),
            "groups.tables_verified": calls["groups.group_table_witness"],
            "groups.assoc_triples": c["groups.assoc_triples"],
            "groups.aut_builds": calls["groups.AutomorphismGroup"],
            "groups.aut_elements": c["groups.aut_elements"],
            "operators.search_s": own["operators.enumerate_rb_operators"],
            "operators.found": c["operators.found"],
            "operators.verify_s": own["operators.rb_witness"],
            "operators.rb_checks": calls["operators.rb_witness"],
            "operators.rb_check_pairs": c["operators.rb_check_pairs"],
            "cohomology.self_s": self.layer_self("cohomology"),
            "cohomology.z2_calls": calls["cohomology.z2_rbe"],
            "cohomology.h2_calls": calls["cohomology.h2_rbe"],
            "cohomology.tc2_space": tc2,
            "cohomology.z2_order": c["cohomology.z2_order"],
            "cohomology.b2_order": c["cohomology.b2_order"],
            "cohomology.h2_order": c["cohomology.h2_order"],
            "cohomology.z2_yield": c["cohomology.z2_order"] / tc2 if tc2 else 0.0,
            "cohomology.map_s": sum(own[f"cohomology.{f}"] for f in COCHAIN_MAPS),
            "cohomology.map_calls": sum(calls[f"cohomology.{f}"] for f in COCHAIN_MAPS),
            "extensions.self_s": self.layer_self("extensions"),
            "extensions.built": sum(calls[name] for name in BUILDS),
            "extensions.equiv_tests": sum(calls[name] for name in EQUIV),
            "extensions.equiv_s": sum(own[name] for name in EQUIV),
            "extensions.triplet_candidates": candidates,
            "extensions.triplets_valid": c["extensions.triplets_valid"],
            "extensions.census_yield": (
                c["extensions.triplets_valid"] / candidates if candidates else 0.0
            ),
            "wells.self_s": self.layer_self("wells"),
            "wells.reports": reports,
            "wells.aut_builds_per_report": (
                c["wells.aut_builds"] / reports if reports else 0.0
            ),
            "cli.self_s": self.layer_self("cli"),
            "cli.bytes_out": c["cli.bytes_out"],
        }


def _counters() -> dict:
    """Counters taken when a wrapped call returns: (tracer, args, result)."""

    def table(tracer, args, result):
        tracer.counts["groups.assoc_triples"] += len(args[0]) ** 3  # computed

    def aut_group(tracer, args, result):
        tracer.counts["groups.aut_elements"] += len(args[0].elements)
        if tracer.active[REPORT]:
            tracer.counts["wells.aut_builds"] += 1

    def found(tracer, args, result):
        tracer.counts["operators.found"] += len(result)

    def rb_pairs(tracer, args, result):
        tracer.counts["operators.rb_check_pairs"] += args[0].order ** 2  # computed

    def z2(tracer, args, result):
        nh, ni = args[0].H.order, args[0].I.order
        tracer.counts["cohomology.tc2_space"] += ni ** ((nh - 1) ** 2 + nh - 1)  # computed
        tracer.counts["cohomology.z2_order"] += len(result)

    def b2(tracer, args, result):
        tracer.counts["cohomology.b2_order"] += len(result)

    def h2(tracer, args, result):
        tracer.counts["cohomology.h2_order"] += result.order_h2

    def census(tracer, args, result):
        h_rb, i_rb, alpha = args[:3]
        nh, ni = h_rb.group.order, i_rb.group.order
        total = ni ** ((nh - 1) ** 2 + nh - 1)  # computed, as h2_alpha sizes its search
        for hh in range(1, nh):
            total *= len(alpha.coset_members(hh))
        tracer.counts["extensions.triplet_candidates"] += total
        tracer.counts["extensions.triplets_valid"] += len(result.triplets)

    return {
        "groups.group_table_witness": table,
        "groups.AutomorphismGroup": aut_group,
        "operators.enumerate_rb_operators": found,
        "operators.rb_witness": rb_pairs,
        "cohomology.z2_rbe": z2,
        "cohomology.b2_rbe": b2,
        "cohomology.h2_rbe": h2,
        "extensions.h2_alpha": census,
    }
