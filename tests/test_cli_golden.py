"""Golden CLI outputs: stdout, stderr and exit code of `rbg split`, `wells`,
`classify` and `cohomology`, compared byte for byte against
`golden/cli_outputs.json`.  None of these subcommands prints timings, so
stderr is as deterministic as stdout.

The recorded outputs are the contract that refactors of the extension and
Wells layers must keep.  Re-record them only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from rbgroups.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORD = GOLDEN / "cli_outputs.json"

# name -> argv; "@file" names an input file in golden/
CALLS = {
    "split ok": ["split", "--H", "Z2", "--I", "Z3", "--action", "@z2_inverts_z3.json",
                 "--RH", "id", "--RI", "zero", "--g", "@g_z2_to_z3.json"],
    "split extension error": ["split", "--H", "Z4", "--I", "Z4", "--action", "trivial",
                              "--RH", "id", "--RI", "id", "--g", "@g_z4_to_z4.json"],
    "split non-abelian kernel": ["split", "--H", "Z2", "--I", "S3", "--RH", "id"],
    "split text": ["split", "--H", "Z2", "--I", "Z3", "--action", "@z2_inverts_z3.json",
                   "--RH", "id", "--RI", "zero", "--g", "@g_z2_to_z3.json",
                   "--format", "text"],
    "wells readme": ["wells", "--H", "Z2", "--I", "Z4", "--action", "trivial",
                     "--RH", "zero", "--RI", "zero"],
    "wells inversion": ["wells", "--H", "Z2", "--I", "Z4", "--action", "@z2_inverts_z4.json",
                        "--RH", "id", "--RI", "inv"],
    "wells inversion cocycle": ["wells", "--H", "Z2", "--I", "Z4",
                                "--action", "@z2_inverts_z4.json", "--RH", "id",
                                "--RI", "inv", "--tau", "@tau_z2_z4.json",
                                "--g", "@g_z2_z4.json"],
    "wells text": ["wells", "--H", "Z3", "--I", "Z3", "--action", "trivial",
                   "--RH", "zero", "--RI", "id", "--format", "text"],
    "classify readme": ["classify", "--H", "Z2", "--I", "Z2", "--action", "trivial",
                        "--RH", "zero", "--RI", "id"],
    "classify inversion": ["classify", "--H", "Z2", "--I", "Z4",
                           "--action", "@z2_inverts_z4.json", "--RH", "zero",
                           "--RI", "(0,2,0,2)"],
    "classify text": ["classify", "--H", "Z2", "--I", "Z4", "--action", "trivial",
                      "--RH", "zero", "--RI", "zero", "--format", "text"],
    "classify non-abelian kernel": ["classify", "--H", "Z2", "--I", "S3", "--RH", "zero"],
    "cohomology readme": ["cohomology", "--H", "Z2", "--I", "Z4", "--action", "trivial",
                          "--RH", "zero", "--RI", "zero"],
    "cohomology non-anti-homomorphic action": ["cohomology", "--H", "Z3", "--I", "Z3",
                                               "--action", "@z3_not_anti_on_z3.json"],
    "split non-automorphism action": ["split", "--H", "Z2", "--I", "Z3",
                                      "--action", "@z2_collapses_z3.json"],
}


def _argv(name: str, tmp: Path) -> list[str]:
    out = []
    for arg in CALLS[name]:
        if arg.startswith("@"):
            arg = str(GOLDEN / arg[1:])
        elif arg.startswith("("):  # an operator given inline, written to a file
            path = tmp / "operator.json"
            path.write_text(json.dumps({"images": json.loads("[" + arg[1:-1] + "]")}))
            arg = str(path)
        out.append(arg)
    return out


def _run(name: str, tmp: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(_argv(name, tmp))
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_output_matches_golden(name, tmp_path):
    want = json.loads(RECORD.read_text())[name]
    assert _run(name, tmp_path) == want


def test_golden_set_covers_every_call():
    assert sorted(json.loads(RECORD.read_text())) == sorted(CALLS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {name: _run(name, Path(tmp)) for name in sorted(CALLS)}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} calls to {RECORD}")
