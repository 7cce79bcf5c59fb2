import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from conftest import FIXTURES

import rbgroups
from rbgroups.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--group", "S3")
    assert code == 0
    assert json.loads(out)["count"] == 8
    code, out, _ = run_cli(capsys, "enumerate", "--group", "Z1")
    assert json.loads(out)["count"] == 1


def test_enumerate_byte_identical_across_workers(capsys):
    outs = []
    for w in ("1", "2", "3", "4"):
        code, out, _ = run_cli(
            capsys, "enumerate", "--group", "S3", "--stream", "--workers", w
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from rbgroups import cli

    code, out, _ = run_cli(capsys, "enumerate", "--group", "S3", "--stream")
    assert code == 0 and len(out.splitlines()) == 9
    code, out, _ = run_cli(capsys, "enumerate", "--group", "S3")
    assert code == 0
    assert out.splitlines() == [json.dumps({"command": "enumerate", "count": 8, "group": "S3"})]
    assert cli._parser() is cli._parser()


def test_stream_roundtrips_schema(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--group", "Z4", "--stream")
    lines = out.strip().splitlines()
    *ops, summary = lines
    assert json.loads(summary)["count"] == len(ops) == 4
    from rbgroups.operators import operator_from_dict

    for line in ops:
        data = json.loads(line)
        op = operator_from_dict(data)
        assert len(op.images) == 4


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--group", "S3", "--operator", str(FIXTURES / "s3" / "R7.json")
    )
    assert code == 0 and json.loads(out)["is_rb_operator"] is True
    code, out, _ = run_cli(capsys, "verify", "--group", "S3", "--operator", "id")
    assert code == 1
    data = json.loads(out)
    assert data["is_rb_operator"] is False and data["witness"] is not None


def test_brace_output(capsys):
    code, out, _ = run_cli(
        capsys, "brace", "--group", "S3", "--operator", str(FIXTURES / "s3" / "R4.json")
    )
    assert code == 0
    data = json.loads(out)
    assert data["is_skew_brace"] is True and data["order"] == 6
    code, _, _ = run_cli(capsys, "brace", "--group", "S3", "--operator", "id")
    assert code == 1


def test_cohomology_trivial_h(capsys):
    code, out, _ = run_cli(
        capsys, "cohomology", "--H", "Z1", "--I", "Z2", "--RH", "zero", "--RI", "id"
    )
    assert code == 0
    data = json.loads(out)
    assert data["order_H2"] == 1
    assert data["representatives"] == [{"g": {"arity": 1, "values": {}},
                                       "tau": {"arity": 2, "values": {}}}]


def test_classify_match(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--H", "Z2", "--I", "Z2", "--action", "trivial", "--RH", "zero", "--RI", "id",
    )
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True and data["num_classes"] == data["h2_order"]


def test_classify_uses_the_cohomology_budget(capsys):
    # |TC^2| = 2^20 lies between the triplet budget (10^6) and the cohomology one
    argv = ["--H", "Z5", "--I", "Z2", "--action", "trivial", "--RH", "zero", "--RI", "zero"]
    code, out, _ = run_cli(capsys, "cohomology", *argv)
    assert code == 0 and json.loads(out)["order_H2"] == 1
    code, out, _ = run_cli(capsys, "classify", *argv)
    assert code == 0
    data = json.loads(out)
    assert data["num_classes"] == 1 and data["match"] is True


def _write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_operator_file_rejects_non_integer_images(tmp_path, capsys):
    for images, shown in (([0, True], "true"), ([0, 1.0], "1.0")):
        path = _write_json(tmp_path, "op.json", {"images": images})
        code, out, err = run_cli(capsys, "verify", "--group", "Z2", "--operator", path)
        assert code == 2 and out == ""
        assert f"operator image 1 is {shown}, not an integer element index" in err
    path = _write_json(tmp_path, "op.json", {"images": ["0", "1"]})  # labels stay accepted
    code, out, _ = run_cli(capsys, "verify", "--group", "Z2", "--operator", path)
    assert code == 0 and json.loads(out)["is_rb_operator"] is True


def test_map_file_rejects_non_integer_images(tmp_path, capsys):
    path = _write_json(tmp_path, "g.json", {"images": [0, True]})
    code, out, err = run_cli(capsys, "split", "--H", "Z2", "--I", "Z4", "--g", path)
    assert code == 2 and out == ""
    assert "map file entry 1 is true, not an integer element index" in err


def test_action_file_rejects_non_integer_entries(tmp_path, capsys):
    path = _write_json(tmp_path, "act.json", {"maps": [[0, 1, 2], [0, 2.9, 1]]})
    code, out, err = run_cli(capsys, "cohomology", "--H", "Z2", "--I", "Z3",
                             "--action", path, "--RH", "zero", "--RI", "zero")
    assert code == 2 and out == ""
    assert "action map 1 entry 1 is 2.9, not an integer element index" in err


def test_cochain_file_rejects_non_integer_values(tmp_path, capsys):
    path = _write_json(tmp_path, "g.json", {"arity": 1, "values": {"(1)": 2.7}})
    code, out, err = run_cli(capsys, "wells", "--H", "Z2", "--I", "Z4", "--action", "trivial",
                             "--RH", "zero", "--RI", "zero", "--g", path)
    assert code == 2 and out == ""
    assert "cochain value at key '(1)' is 2.7, not an integer element index" in err


def test_cochain_file_rejects_non_integer_arity(tmp_path, capsys):
    path = _write_json(tmp_path, "g.json", {"arity": 1.9, "values": {"(1)": 1}})
    code, out, err = run_cli(capsys, "wells", "--H", "Z2", "--I", "Z4", "--g", path)
    assert (code, out, err) == (2, "", "error: cochain arity is 1.9, not an integer\n")


def test_cochain_arity_is_checked_before_the_cochain_is_sized(tmp_path, capsys):
    from rbgroups.cohomology import nondegenerate_tuples

    argv = ("wells", "--H", "Z3", "--I", "Z2", "--tau")
    code, _, _ = run_cli(capsys, *argv, _write_json(tmp_path, "ok.json", {"arity": 2}))
    assert code == 0  # sizes every index this module needs
    before = nondegenerate_tuples.cache_info()
    code, out, err = run_cli(capsys, *argv, _write_json(tmp_path, "tau.json", {"arity": 40}))
    assert (code, out, err) == (2, "", "error: cochain has arity 40, expected 2\n")
    after = nondegenerate_tuples.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


@pytest.mark.parametrize("argv,name,data,message", [
    (("wells", "--H", "Z2", "--I", "Z4", "--g"), "g.json", {"arity": 1, "values": [1]},
     "a cochain must be an object whose 'values' is an object"),
    (("cohomology", "--H", "Z2", "--I", "Z2", "--action"), "act.json", [1, 0],
     "action file must hold a list of maps, each a list of images"),
    (("verify", "--operator", "zero", "--group"), "group.json", {"table": [0, 1]},
     "Cayley-table JSON 'table' must be a list of rows, each a list"),
    (("split", "--H", "Z2", "--I", "Z3", "--g"), "g.json", {"images": 3},
     "map file must hold a list of images"),
    (("verify", "--group", "S3", "--operator"), "op.json", {"images": 3},
     "operator JSON must be an object whose 'images' is a list"),
    (("cohomology", "--H", "Z2", "--I", "Z2", "--action"), "act.json", {"map": []},
     "action file has no 'maps' field"),
    (("wells", "--H", "Z3", "--I", "Z2", "--tau"), "tau.json", {"values": {}},
     "cochain has no 'arity' field"),
    (("split", "--H", "Z2", "--I", "Z3", "--g"), "g.json", {"imgs": [0, 1]},
     "map file has no 'images' field"),
    (("wells", "--H", "Z3", "--I", "Z2", "--tau"), "tau.json", {"arity": "2", "values": {}},
     'cochain arity is "2", not an integer'),
    (("wells", "--H", "Z2", "--I", "Z4", "--g"), "g.json", {"arity": 1, "values": {"(a)": 1}},
     "cochain key '(a)' is not a tuple of integers"),
])
def test_malformed_input_files_are_usage_errors(tmp_path, capsys, argv, name, data, message):
    code, out, err = run_cli(capsys, *argv, _write_json(tmp_path, name, data))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_repeated_group_labels_are_usage_errors(tmp_path, capsys):
    z3 = {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "labels": ["a", "a", "b"]}
    group = _write_json(tmp_path, "z3.json", z3)
    op = _write_json(tmp_path, "op.json", {"images": ["a", "b", "a"]})
    code, out, err = run_cli(capsys, "verify", "--group", group, "--operator", op)
    assert code == 2 and out == ""
    assert err == "error: z3: element label 'a' is repeated\n"


def test_group_names_and_files_honour_the_bound(tmp_path, capsys):
    s3 = str(tmp_path / "s3.json")
    rbgroups.save_group(rbgroups.make_group("S3"), s3)
    for spec, name in (("S3", "S3"), (s3, "s3")):
        code, out, err = run_cli(capsys, "verify", "--group", spec, "--operator", "zero",
                                 "--bound", "4")
        assert code == 3 and out == ""
        assert f"group {name} has order 6 > bound 4" in err
        code, out, _ = run_cli(capsys, "verify", "--group", spec, "--operator", "zero")
        assert code == 0 and json.loads(out)["is_rb_operator"] is True
    # without --bound, a file is held to the default bound like a catalog name
    z65 = str(tmp_path / "z65.json")
    rbgroups.save_group(rbgroups.make_group("Z65", bound=65), z65)
    code, out, err = run_cli(capsys, "verify", "--group", z65, "--operator", "zero")
    assert code == 3 and out == ""
    assert "group z65 has order 65 > bound 64" in err
    code, out, _ = run_cli(capsys, "verify", "--group", z65, "--operator", "zero",
                           "--bound", "65")
    assert code == 0 and json.loads(out)["is_rb_operator"] is True


def test_split_command(tmp_path, capsys):
    action = tmp_path / "inv.json"
    action.write_text(json.dumps({"maps": [[0, 1, 2], [0, 2, 1]]}))
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"images": [0, 1]}))
    code, out, _ = run_cli(
        capsys,
        "split",
        "--H", "Z2", "--I", "Z3",
        "--action", str(action), "--RH", "id", "--RI", "zero", "--g", str(gfile),
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True and data["order"] == 6


def test_split_failure_exit_one(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"images": [0, 1, 0, 0]}))
    code, out, _ = run_cli(
        capsys,
        "split",
        "--H", "Z4", "--I", "Z4",
        "--action", "trivial", "--RH", "id", "--RI", "id", "--g", str(gfile),
    )
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "(mu, g) violates the split condition: rb-law at (4, 4)"
    assert data["witness"] == ["rb-law", "(4, 4)"]


def test_split_rejects_non_operator_flags(capsys):
    code, out, err = run_cli(capsys, "split", "--H", "S3", "--I", "Z3", "--RH", "id")
    assert code == 2 and out == ""
    assert "--RH is not a Rota-Baxter operator (fails at (1, 2))" in err
    code, out, err = run_cli(capsys, "split", "--H", "Z2", "--I", "S3", "--RI", "id")
    assert code == 2 and out == ""
    assert "--RI is not a Rota-Baxter operator (fails at (1, 2))" in err


def test_split_rejects_g_images_outside_i(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    for value in (7, -1):
        gfile.write_text(json.dumps({"images": [0, value]}))
        code, out, err = run_cli(capsys, "split", "--H", "Z2", "--I", "Z3", "--g", str(gfile))
        assert code == 2 and out == ""
        assert f"map file entry 1 is {value}, not an element of Z3" in err


def test_wells_rejects_cochain_files_outside_h_and_i(tmp_path, capsys):
    cases = (
        ("--tau", {"arity": 2, "values": {"(1,1)": 9}}, "cochain value 9 at key '(1,1)'"),
        ("--g", {"arity": 1, "values": {"(1)": -1}}, "cochain value -1 at key '(1)'"),
        ("--g", {"arity": 1, "values": {"(5)": 1}}, "cochain key '(5)' has an entry outside"),
    )
    for flag, data, message in cases:
        path = tmp_path / "cochain.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "wells", "--H", "Z2", "--I", "Z4", flag, str(path))
        assert code == 2 and out == ""
        assert message in err


def test_wells_bound_reaches_the_automorphism_builds(capsys):
    code, out, err = run_cli(capsys, "wells", "--H", "Z2", "--I", "Z33")
    assert code == 3 and out == ""
    assert "homomorphism enumeration bound exceeded: 66, 66 > 64" in err
    code, out, _ = run_cli(capsys, "wells", "--H", "Z2", "--I", "Z33", "--bound", "100")
    assert code == 0
    data = json.loads(out)
    assert (data["z1_order"], data["autI_order"], data["cmu_order"], data["h2_order"]) == (
        1, 20, 20, 1
    )
    assert data["exact_at_autI"] and data["exact_at_cmu"] and data["omega_is_derivation"]


def test_nonpositive_job_settings_are_refused(capsys):
    for argv, message in (
        (("enumerate", "--group", "S3", "--workers", "0"), "worker count must be positive"),
        (("cohomology", "--H", "Z2", "--I", "Z2", "--budget", "0"), "budget must be positive"),
        (("verify", "--group", "S3", "--operator", "zero", "--bound", "0"),
         "bound must be positive"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_wells_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "wells",
        "--H", "Z2", "--I", "Z4", "--action", "trivial", "--RH", "zero", "--RI", "zero",
    )
    assert code == 0
    data = json.loads(out)
    for key in ("z1_order", "autI_order", "autHI_order", "cmu_order", "h2_order"):
        assert key in data
    assert data["exact_at_autI"] and data["exact_at_cmu"] and data["omega_is_derivation"]


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "cohomology",
        "--H", "Z2", "--I", "Z4", "--RH", "zero", "--RI", "zero",
        "--budget", "2",
    )
    assert code == 3 and "budget" in err


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--group", "NOPE")
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, "verify", "--group", "Z4", "--operator",
                         str(FIXTURES / "s3" / "R7.json"))
    assert code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rbgroups.cli", "enumerate", "--group", "Q8"],
        cwd=Path(rbgroups.__file__).parents[1],  # finds the package without an install
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 8


@pytest.mark.parametrize("flags", [(), ("--format", "text"), ("--stream",), ("--workers", "2")])
@pytest.mark.parametrize("name", ["Z1", "S3", "Q8", "D6"])
def test_enumerate_up_to_order_twelve_writes_nothing_to_stderr(capsys, name, flags):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "enumerate", "--group", name, *flags)
    assert code == 0 and out and err == ""


def test_enumerate_stderr_holds_only_the_warning_above_twelve():
    def run(name):
        return subprocess.run(
            [sys.executable, "-m", "rbgroups.cli", "enumerate", "--group", name],
            cwd=Path(rbgroups.__file__).parents[1], capture_output=True, text=True)

    twelve, thirteen = run("Z12"), run("Z13")
    assert (twelve.returncode, twelve.stderr) == (0, "")
    assert thirteen.returncode == 0 and json.loads(thirteen.stdout)["count"] == 13
    assert "order 13" in thirteen.stderr and "operators in" not in thirteen.stderr


def test_enumerate_order_warning_is_its_message_alone(capsys):
    """One line, with no file, line number or source line, in a subprocess and
    in-process; the library still warns (`test_soft_warning_above_twelve`)."""
    line = ("warning: enumerating Rota-Baxter operators on a group of order 13; "
            "this may take a while\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rbgroups.cli", "enumerate", "--group", "Z13"],
        cwd=Path(rbgroups.__file__).parents[1], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, line)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "enumerate", "--group", "Z13")
    assert (code, json.loads(out)["count"], err, escaped) == (0, 13, line, [])


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--group", "S3", "--format", "text")
    assert code == 0 and "count: 8" in out


def test_operator_file_with_inline_group(tmp_path, capsys):
    import rbgroups

    z6 = rbgroups.make_group("Z6")
    op = rbgroups.inversion_operator(z6)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(rbgroups.operator_to_dict(op)))
    code, out, _ = run_cli(capsys, "verify", "--group", str(_write_group(tmp_path, z6)),
                           "--operator", str(path))
    assert code == 0 and json.loads(out)["is_rb_operator"] is True


def _write_group(tmp_path, g):
    import rbgroups

    path = tmp_path / "group.json"
    rbgroups.save_group(g, path)
    return path


def test_enumerate_stream_golden_s3(capsys):
    # golden output: canonical ordering end-to-end (labels, sort, JSON shape)
    code, out, _ = run_cli(capsys, "enumerate", "--group", "S3", "--stream")
    assert code == 0
    assert out.splitlines() == [
        '{"group": "S3", "images": [0, 0, 0, 0, 0, 0]}',
        '{"group": "S3", "images": [0, 0, 5, 4, 5, 4]}',
        '{"group": "S3", "images": [0, 1, 1, 1, 0, 0]}',
        '{"group": "S3", "images": [0, 1, 2, 3, 5, 4]}',
        '{"group": "S3", "images": [0, 2, 2, 2, 0, 0]}',
        '{"group": "S3", "images": [0, 3, 3, 3, 0, 0]}',
        '{"group": "S3", "images": [0, 4, 0, 5, 5, 4]}',
        '{"group": "S3", "images": [0, 5, 4, 0, 5, 4]}',
        '{"command": "enumerate", "count": 8, "group": "S3"}',
    ]


@pytest.mark.parametrize(
    "name, extra",
    [("D4xZ2", ()), ("Z2xZ2xZ4", ("--bound", "36")), ("Z1", ()), ("table", ()),
     ("Z2xZ2xZ4", ("--format", "text")), ("D4", ("--workers", "2"))],
)
def test_stream_lines_are_the_sorted_json_of_each_operator(tmp_path, capsys, name, extra):
    # byte for byte what json.dumps of each operator's dict prints, then the
    # summary; the table path needs the same JSON escapes and no %-formatting
    group = rbgroups.make_group("D4" if name == "table" else name)
    spec = name
    if name == "table":
        path = tmp_path / 'we%ird "dir" \u00e9' / "g%d%s\\.json"
        path.parent.mkdir()
        rbgroups.save_group(group, path)
        spec = str(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ops = rbgroups.enumerate_rb_operators(group)
        code, out, _ = run_cli(capsys, "enumerate", "--group", spec, "--stream", *extra)
    lines = [json.dumps(rbgroups.operator_to_dict(op, group_name=spec), sort_keys=True)
             for op in ops]
    summary = {"command": "enumerate", "count": len(ops), "group": spec}
    if "text" in extra:
        lines += [f"{key}: {summary[key]}" for key in sorted(summary)]
    else:
        lines.append(json.dumps(summary, sort_keys=True))
    assert code == 0
    assert out == "".join(line + "\n" for line in lines)


def test_import_loads_no_process_pool():
    # only `enumerate --workers N` with N > 1 needs concurrent.futures
    proc = subprocess.run(
        [sys.executable, "-c", "import rbgroups, rbgroups.cli, sys; "
         "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
        cwd=Path(rbgroups.__file__).parents[1],  # finds the package without an install
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_flags_outside_their_subcommands_are_rejected(capsys):
    code, out, err = run_cli(capsys, "verify", "--group", "S3", "--operator", "zero",
                             "--workers", "2")
    assert code == 2 and out == "" and "--workers" in err
    code, out, err = run_cli(capsys, "enumerate", "--group", "S3", "--budget", "5")
    assert code == 2 and out == "" and "--budget" in err
