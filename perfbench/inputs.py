"""Seeded benchmark inputs: catalog Cayley tables under a random relabelling.

A relabelling is a permutation p of 0..n-1 with p[0] = 0, so the identity
keeps index 0.  Catalog element a becomes element p[a] of the relabelled
table.  Every label-invariant answer (operator counts, |H2|, census classes
and orbits) is unchanged, while the order in which the searches visit
elements changes, and with it their cost.

A run draws RELABELLINGS relabellings of each input, and a job on
relabelled input takes the next of them in each pass.  The cost of one
relabelled search has a long tail over seeds, so averaging over several
keeps one draw from setting the run's time.

The program under test receives only the written table files; the
permutations stay with the benchmark, which uses them to map answers back to
catalog labels.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

RELABELLINGS = 4


def relabelling(n: int, seed: int, name: str, k: int) -> tuple[int, ...]:
    """The seed's k-th permutation for input `name`, independent of input order."""
    rest = list(range(1, n))
    random.Random(f"{seed}:{name}:{k}").shuffle(rest)
    return (0, *rest)


def relabel_table(table, p) -> list[list[int]]:
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row = out[p[a]]
        for b in range(n):
            row[p[b]] = p[table[a][b]]
    return out


def write_inputs(names, seed: int, root: Path, directory: Path) -> dict:
    """Write the seed's RELABELLINGS relabelled tables of each catalog group
    in `names` to `root / directory`.

    Returns the manifest: name -> list of {"path": table file relative to
    `root`, "perm": permutation}.  The files use the Cayley-table JSON format
    that `rbg --group` reads.
    """
    from rbgroups.groups import make_group

    (root / directory).mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name in names:
        g = make_group(name)
        manifest[name] = []
        for k in range(RELABELLINGS):
            p = relabelling(g.order, seed, name, k)
            data = {"order": g.order, "identity": 0, "table": relabel_table(g.table, p)}
            if g.labels is not None:
                labels = [""] * g.order
                for a, label in enumerate(g.labels):
                    labels[p[a]] = label
                data["labels"] = labels
            path = directory / f"{name}-{k}.json"
            (root / path).write_text(json.dumps(data) + "\n")
            manifest[name].append({"path": str(path), "perm": list(p)})
    return manifest
