"""Command-line interface: enumerate / verify / brace / cohomology / classify /
split / wells, with machine-readable JSON output.

Exit codes: 0 success (or verification true), 1 verification failure,
2 usage error, 3 budget exceeded.  JSON output is canonically ordered and
independent of the worker count; stderr carries only warnings and errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from operator import itemgetter
from pathlib import Path

from .groups import (
    DEFAULT_GROUP_BOUND,
    BudgetError,
    FiniteGroup,
    json_element,
    load_group,
    make_group,
)
from .operators import (
    DEFAULT_ENUM_BOUND,
    RotaBaxterOperator,
    _operator_rows,
    identity_operator,
    induced_skew_brace,
    inversion_operator,
    load_operator,
    rb_witness,
    trivial_operator,
)
from .cohomology import (
    DEFAULT_COHOMOLOGY_BUDGET,
    Cochain,
    CocyclePair,
    RBModule,
    h2_rbe,
    trivial_action,
)
from .extensions import (
    ExtensionError,
    build_abelian_extension,
    build_split_extension,
    classify_abelian,
)
from .wells import check_wells_exactness

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _looks_like_path(spec: str) -> bool:
    return spec.endswith(".json") or "/" in spec or Path(spec).exists()


def _resolve_group(spec: str, bound: int | None) -> FiniteGroup:
    """A catalog name or a Cayley-table file, refused above the order bound."""
    bound = DEFAULT_GROUP_BOUND if bound is None else bound
    if _looks_like_path(spec):
        return load_group(spec, bound=bound)
    return make_group(spec, bound=bound)


def _resolve_operator(spec: str, group: FiniteGroup) -> RotaBaxterOperator:
    named = {
        "zero": trivial_operator,
        "e": trivial_operator,
        "id": identity_operator,
        "inv": inversion_operator,
    }
    if spec in named:
        return named[spec](group)
    return load_operator(spec, group=group)


def _resolve_rb_operator(spec: str, group: FiniteGroup, flag: str) -> RotaBaxterOperator:
    op = _resolve_operator(spec, group)
    w = rb_witness(group, op.images)
    if w is not None:
        raise ValueError(f"{flag} is not a Rota-Baxter operator (fails at {w})")
    return op


def _resolve_action(spec: str, h: FiniteGroup, igroup: FiniteGroup):
    if spec == "trivial":
        return trivial_action(h, igroup)
    data = json.loads(Path(spec).read_text())
    maps = data["maps"] if isinstance(data, dict) else data
    if not isinstance(maps, list) or not all(isinstance(row, list) for row in maps):
        raise ValueError("action file must hold a list of maps, each a list of images")
    if len(maps) != h.order:
        raise ValueError(f"action file has {len(maps)} maps for |H| = {h.order}")
    return tuple(
        tuple(json_element(v, f"action map {h} entry {y}") for y, v in enumerate(row))
        for h, row in enumerate(maps)
    )


def _resolve_module(args) -> RBModule:
    h = _resolve_group(args.H, args.bound)
    igroup = _resolve_group(args.I, args.bound)
    hop = _resolve_rb_operator(args.RH, h, "--RH")
    rop = _resolve_operator(args.RI, igroup)
    return RBModule(hop, igroup, rop.images, _resolve_action(args.action, h, igroup))


def _load_cochain(module: RBModule, spec: str | None, arity: int) -> Cochain:
    if spec is None:
        return Cochain.zero(module, arity)
    data = json.loads(Path(spec).read_text())
    declared = data.get("arity") if isinstance(data, dict) else None
    if type(declared) is int and declared != arity:  # before from_dict sizes the cochain
        raise ValueError(f"cochain has arity {declared}, expected {arity}")
    return Cochain.from_dict(module, data)


def _load_map_images(spec: str, domain: FiniteGroup, codomain: FiniteGroup):
    data = json.loads(Path(spec).read_text())
    raw = data["images"] if isinstance(data, dict) else data
    if not isinstance(raw, list):
        raise ValueError("map file must hold a list of images")
    if len(raw) != domain.order:
        raise ValueError(f"map file has {len(raw)} images for |H| = {domain.order}")
    images = tuple(json_element(v, f"map file entry {k}", codomain) for k, v in enumerate(raw))
    for k, v in enumerate(images):
        if not 0 <= v < codomain.order:
            raise ValueError(f"map file entry {k} is {v}, not an element of {codomain.name}")
    return images


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for key in sorted(obj):
            print(f"{key}: {obj[key]}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    group = _resolve_group(args.group, args.bound)
    bound = DEFAULT_ENUM_BOUND if args.bound is None else args.bound
    with warnings.catch_warnings(record=True) as caught:  # the order warning, without its source
        rows = _operator_rows(group, bound, args.workers)  # the images of enumerate_rb_operators
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if args.stream:  # the bytes of json.dumps(operator_to_dict(op, args.group), sort_keys=True)
        pre = '{"group": ' + json.dumps(args.group) + ', "images": ['
        text = [str(x) for x in group.elements()] + [""]  # index -1: a tuple when |G| = 1
        sys.stdout.writelines(pre + ", ".join(itemgetter(*r, -1)(text)[:-1]) + "]}\n" for r in rows)
    summary = {"command": "enumerate", "group": args.group, "count": len(rows)}
    _emit(summary, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    group = _resolve_group(args.group, args.bound)
    op = _resolve_operator(args.operator, group)
    w = rb_witness(group, op.images)
    out = {
        "command": "verify",
        "group": args.group,
        "is_rb_operator": w is None,
        "witness": list(w) if w is not None else None,
    }
    _emit(out, args.format)
    return EXIT_OK if w is None else EXIT_FAIL


def cmd_brace(args) -> int:
    group = _resolve_group(args.group, args.bound)
    op = _resolve_operator(args.operator, group)
    w = rb_witness(group, op.images)
    if w is not None:
        _emit({"command": "brace", "error": f"not a Rota-Baxter operator at {w}"}, args.format)
        return EXIT_FAIL
    brace = induced_skew_brace(group, op)
    out = {
        "command": "brace",
        "group": args.group,
        "order": brace.order,
        "add": [list(r) for r in brace.add],
        "circ": [list(r) for r in brace.circ],
        "is_skew_brace": True,  # induced_skew_brace raises on any other brace
    }
    _emit(out, args.format)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    module = _resolve_module(args)
    h2 = h2_rbe(module, **({"budget": args.budget} if args.budget else {}))
    out = h2.to_dict()
    out["command"] = "cohomology"
    _emit(out, args.format)
    return EXIT_OK


def cmd_classify(args) -> int:
    module = _resolve_module(args)
    report = classify_abelian(module, **({"budget": args.budget} if args.budget else {}))
    report["command"] = "classify"
    _emit(report, args.format)
    return EXIT_OK if report["match"] else EXIT_FAIL


def cmd_split(args) -> int:
    h = _resolve_group(args.H, args.bound)
    igroup = _resolve_group(args.I, args.bound)
    hop = _resolve_rb_operator(args.RH, h, "--RH")
    rop = _resolve_rb_operator(args.RI, igroup, "--RI")
    mu = _resolve_action(args.action, h, igroup)
    g = _load_map_images(args.g, h, igroup) if args.g else (0,) * h.order
    try:
        ext = build_split_extension(hop, rop, mu, g)
    except ExtensionError as err:
        _emit({"command": "split", "error": str(err), "witness": list(map(str, err.witness or ()))},
              args.format)
        return EXIT_FAIL
    out = {
        "command": "split",
        "order": ext.E.order,
        "table": [list(r) for r in ext.E.table],
        "operator": list(ext.operator.images),
        "verified": True,
    }
    _emit(out, args.format)
    return EXIT_OK


def cmd_wells(args) -> int:
    module = _resolve_module(args)
    tau = _load_cochain(module, args.tau, 2)
    g = _load_cochain(module, args.g, 1)
    try:
        ext = build_abelian_extension(module, CocyclePair(tau, g))
    except ExtensionError as err:
        _emit({"command": "wells", "error": str(err)}, args.format)
        return EXIT_FAIL
    report = check_wells_exactness(
        ext,
        bound=args.bound or DEFAULT_GROUP_BOUND,
        budget=args.budget or DEFAULT_COHOMOLOGY_BUDGET,
    )
    report["command"] = "wells"
    _emit(report, args.format)
    ok = report["exact_at_autI"] and report["exact_at_cmu"] and report["omega_is_derivation"]
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, budget: bool = False) -> None:
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--bound", type=int, default=None, help="group order bound override")
    if budget:
        p.add_argument("--budget", type=int, default=None, help="brute-force candidate cap")


def _add_module_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--H", required=True, help="acting group descriptor or file")
    p.add_argument("--I", required=True, help="kernel group descriptor or file")
    p.add_argument("--RH", default="zero", help="operator on H: zero|id|inv|file")
    p.add_argument("--RI", default="zero", help="operator on I: zero|id|inv|file")
    p.add_argument("--action", default="trivial", help="trivial or a JSON action file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbg", description="Rota-Baxter operators on finite groups"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate all Rota-Baxter operators")
    p.add_argument("--group", required=True)
    p.add_argument("--stream", action="store_true", help="one operator JSON per line")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the operator search; an abelian group is "
                        "listed off a cyclic basis in-process and starts none")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check one operator against the law")
    p.add_argument("--group", required=True)
    p.add_argument("--operator", required=True, help="zero|id|inv|file")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("brace", help="dump the induced skew brace")
    p.add_argument("--group", required=True)
    p.add_argument("--operator", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_brace)

    p = sub.add_parser("cohomology", help="compute H2 of a module")
    _add_module_flags(p)
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("classify", help="classify abelian extensions vs H2")
    _add_module_flags(p)
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("split", help="build a split extension from (mu, g)")
    _add_module_flags(p)
    p.add_argument("--g", default=None, help="JSON file of g images")
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("wells", help="exactness report for one extension")
    _add_module_flags(p)
    p.add_argument("--tau", default=None, help="2-cochain JSON file")
    p.add_argument("--g", default=None, help="1-cochain JSON file")
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_wells)

    return parser


_parser = functools.cache(build_parser)  # argparse set-up once per process, not per call


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError("worker count must be positive")
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise ValueError("budget must be positive")
        if args.bound is not None and args.bound < 1:
            raise ValueError("bound must be positive")
        return args.func(args)
    except BudgetError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
