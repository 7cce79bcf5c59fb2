"""The benchmark workloads: how each builds its inputs, which jobs it runs,
and how each job's output is checked against the reference answers.

Jobs call the library through module attributes (`cohomology.h2_rbe`, not a
name bound at import), and the CLI through `cli.main`, so that the traced run
sees every call it wraps.  A job returns None when its output matches the
reference and a one-line description of the mismatch otherwise.

Reference answers live in reference.json.  They are label-invariant, so a
job on a relabelled table is held to the same answer as on catalog labels;
operator sets are mapped back to catalog labels before their digest is
compared.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from rbgroups import cli, cohomology, extensions, groups, operators, wells

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# Each job list is sized so that a run of `run_seconds` times every job
# twenty times or more: a pass takes 1 to 2 s on a 2-core x86 box.  No job
# takes much more than 0.3 s, so that some of its runs fall between bursts of
# load from other tenants.
SPARSE = ("S3xZ6", "D18", "D16", "D12", "S4", "D4", "Q8", "S3")
DENSE = ("D4xZ2", "Z2xZ2xZ2xZ3", "Z2xZ2xZ4")
WELLS_PAIRS = (("Z4", "Z2"), ("Z3", "Z3"))
CENSUS = ("D4", "S3", "Q8", "D5")
# Every enumeration job passes this bound; S3xZ6 and D18 (order 36) are the
# largest inputs.
ENUM_BOUND = 36


@dataclass
class Job:
    name: str
    runs: list[Callable[[], str | None]]  # one per input; pass k runs runs[k % len(runs)]


def rotating(name: str, jobs: list[Job]) -> Job:
    """One job that runs the k-th of `jobs` in pass k, cyclically."""
    return Job(name, [run for job in jobs for run in job.runs])


@dataclass
class Workload:
    relabelled: tuple[str, ...]  # catalog groups whose seeded relabellings are inputs
    build: Callable[[dict], list[Job]]  # set-up: builds every input, returns the job list
    largest: str  # name of the job that times the workload's largest instance


def run_cli(argv) -> tuple[int, str]:
    """Run `rbg argv` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def operator_digest(images, perm=None) -> str:
    """Digest of an operator set in catalog labels; `perm` maps catalog to input labels."""
    if perm is None:
        ops = sorted(tuple(im) for im in images)
    else:
        inv = [0] * len(perm)
        for a, pa in enumerate(perm):
            inv[pa] = a
        ops = sorted(tuple(inv[im[pa]] for pa in perm) for im in images)
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()


def pair_key(h: str, i: str) -> str:
    return f"{h}/{i}"


def anti_actions(h, igroup):
    """Every anti-homomorphism H -> Aut(I), as image tables of I."""
    aut = groups.automorphisms(igroup)
    out = []
    for choice in itertools.product(aut.elements, repeat=h.order - 1):
        action = (tuple(igroup.elements()),) + tuple(f.images for f in choice)
        if all(
            action[h.table[h1][h2]] == tuple(action[h2][action[h1][y]] for y in igroup.elements())
            for h1 in h.elements()
            for h2 in h.elements()
        ):
            out.append(action)
    return out


def module_sweep(h_name: str, i_name: str) -> list:
    """Every Rota-Baxter module on (H, I), H abelian, in a fixed order.

    On an abelian group the Rota-Baxter operators are the endomorphisms.
    """
    h, igroup = groups.make_group(h_name), groups.make_group(i_name)
    actions = anti_actions(h, igroup)
    mods = []
    for hop in groups.endomorphisms(h):
        rh = operators.RotaBaxterOperator(h, hop.images)
        for ri in groups.endomorphisms(igroup):
            for act in actions:
                if cohomology.is_rb_module(rh, igroup, ri.images, act):
                    mods.append(cohomology.RBModule(rh, igroup, ri.images, act, check=True))
    return mods


def module_sample(mods) -> list[tuple[int, object]]:
    """(position in the sweep, module) of the first, middle and last module."""
    picks = sorted({0, len(mods) // 2, len(mods) - 1})
    return [(k, mods[k]) for k in picks]


# ---------------------------------------------------------------------------
# enum-sparse and enum-dense: `rbg enumerate --stream`
# ---------------------------------------------------------------------------


def _enumerate_job(name: str, spec: str, perm, labels: str) -> Job:
    ref = REFERENCE["operators"][name]

    def run():
        code, out = run_cli(["enumerate", "--group", spec, "--stream", "--bound", str(ENUM_BOUND)])
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        count = json.loads(lines[-1])["count"]
        images = [json.loads(line)["images"] for line in lines[:-1]]
        if count != ref["count"] or len(images) != ref["count"]:
            return f"{len(images)} operators streamed, count {count}, expected {ref['count']}"
        if operator_digest(images, perm) != ref["digest"]:
            return "operator set differs from the catalog reference"
        return None

    return Job(f"enumerate {name} {labels}", [run])


def _enumeration(names) -> Callable[[dict], list[Job]]:
    def build(manifest: dict) -> list[Job]:
        jobs = []
        for name in names:
            # Build and verify each input once; the CLI jobs build their own copies.
            groups.make_group(name, bound=ENUM_BOUND)
            for relabelled in manifest[name]:
                groups.load_group(relabelled["path"])
            jobs.append(_enumerate_job(name, name, None, "catalog"))
            jobs.append(rotating(f"enumerate {name} relabelled", [
                _enumerate_job(name, r["path"], r["perm"], "relabelled") for r in manifest[name]]))
        return jobs

    return build


# ---------------------------------------------------------------------------
# extensions: Wells reports on a fixed module sample, and the triplet census
# ---------------------------------------------------------------------------


def wells_sample(h_name: str, i_name: str) -> list:
    """(label, module, pair): the least and greatest 2-cocycle of each module
    of the module sample."""
    out = []
    for k, m in module_sample(module_sweep(h_name, i_name)):
        z2 = cohomology.z2_rbe(m)
        out += [(f"#{k} least", m, z2[0]), (f"#{k} greatest", m, z2[-1])]
    return out


def _wells_job(key: str, label: str, m, pair, ref) -> Job:
    def run():
        ext = extensions.build_abelian_extension(m, pair)
        r = wells.check_wells_exactness(ext)
        if not (r["exact_at_autI"] and r["exact_at_cmu"] and r["omega_is_derivation"]):
            return f"not exact: {r['witnesses'][:1]}"
        got = [r["h2_order"], r["cmu_order"], r["autI_order"]]
        return None if got == ref else f"|H2|, |C_mu|, |Aut_I| = {got}, expected {ref}"

    return Job(f"wells {key} {label}", [run])


def _census_job(name: str, igroup, labels: str) -> Job:
    ref = REFERENCE["census"][name]
    z2 = groups.make_group("Z2")
    h_rb = operators.RotaBaxterOperator(z2, (0, 0))
    i_rb = operators.trivial_operator(igroup)
    alpha = extensions.trivial_coupling(z2, igroup)

    def run():
        census = extensions.h2_alpha(h_rb, i_rb, alpha)
        report = extensions.central_action(census)
        got = [census.num_classes, report["orbits"]]
        if got != ref or not report["free"]:
            return f"classes/orbits {got} free={report['free']}, expected {ref}"
        return None

    return Job(f"census Z2/{name} {labels}", [run])


def _build_extensions(manifest: dict) -> list[Job]:
    jobs = []
    for h, i in WELLS_PAIRS:
        key = pair_key(h, i)
        for (label, m, pair), ref in zip(wells_sample(h, i), REFERENCE["wells"][key]):
            jobs.append(_wells_job(key, label, m, pair, ref))
    for name in CENSUS:
        jobs.append(_census_job(name, groups.make_group(name), "catalog"))
        jobs.append(rotating(f"census Z2/{name} relabelled", [
            _census_job(name, groups.load_group(r["path"]), "relabelled")
            for r in manifest[name]]))
    return jobs


WORKLOADS = {
    "enum-sparse": Workload(SPARSE, _enumeration(SPARSE), "enumerate S3xZ6 catalog"),
    "enum-dense": Workload(DENSE, _enumeration(DENSE), "enumerate Z2xZ2xZ2xZ3 catalog"),
    "extensions": Workload(CENSUS, _build_extensions, "census Z2/D5 catalog"),
}
