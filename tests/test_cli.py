import json

import pytest

from helpers import Multisegment, multisegment_oracle
from klforge.cli import main
from klforge.poly import LaurentPoly
from klforge.segcomb import BiSequence


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


GOLDEN = [
    (["kl", "--s", "1,2,3,4", "--w", "3,4,1,2", "--no-cache"], "1+q\n"),
    (["kl", "--s", "2,1", "--w", "2,1", "--no-cache"], "1\n"),
    (["kl", "--s", "2,1,3", "--w", "1,2,3", "--no-cache"], "0\n"),
    (["pkl", "--s", "1,2", "--w", "2,1", "--m", "2", "--variant", "q", "--no-cache"], "q\n"),
    (["pkl", "--s", "2,1", "--w", "2,1", "--m", "3", "--variant", "q", "--no-cache"], "1\n"),
    (["pkl", "--s", "1,2", "--w", "2,1", "--m", "1", "--variant", "neg1", "--no-cache"],
     "1\n"),
    (["sigma0", "--a", "1,2,3", "--b", "8,7,6"], "1,2,3\n"),
    (["mseg", "--a", "1,2,3", "--b", "8,7,6", "--perm", "1,2,3"],
     "[1,8]+[2,7]+[3,6]\n"),
    (["sigma0", "--a", "1,2,3", "--b", "8,7,6", "--format", "json"], "[1, 2, 3]\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN)
def test_golden_outputs(argv, expected, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == expected


def test_kl_json_roundtrip(capsys):
    code, out, _ = run_cli(
        ["kl", "--s", "1,2,3,4", "--w", "3,4,1,2", "--format", "json",
         "--no-cache"], capsys)
    assert code == 0
    p = LaurentPoly.from_json(json.loads(out))
    assert p == LaurentPoly.from_q_coeffs({0: 1, 1: 1})


def test_pkl_not_comparable(capsys):
    code, out, err = run_cli(
        ["pkl", "--s", "2,1", "--w", "1,2", "--m", "2", "--no-cache"], capsys)
    assert code == 1
    assert "not comparable" in err


@pytest.mark.parametrize("argv", [
    ["kl", "--s", "1,2", "--w", "1,2,3", "--no-cache"],
    ["pkl", "--s", "1,2", "--w", "1,2,3", "--m", "2", "--no-cache"],
], ids=["kl", "pkl"])
def test_size_mismatch_is_one_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", "error: permutations must have the same n\n")


def test_mseg_drops_empty_segment(capsys):
    code, out, _ = run_cli(
        ["mseg", "--a", "1,3", "--b", "2,1", "--perm", "2,1"], capsys)
    assert code == 0
    assert out == "[1,1]\n"


def test_mseg_json_roundtrip(capsys):
    # the oracle reads back what mseg prints, multiplicities included
    for a, b, perm, want in [
        ((1, 2, 3), (8, 7, 6), (1, 2, 3), '[{"a": 3, "b": 6, "mult": 1}, '
         '{"a": 2, "b": 7, "mult": 1}, {"a": 1, "b": 8, "mult": 1}]\n'),
        ((1, 1, 2, 2), (9, 9, 8, 8), (2, 1, 3, 4),
         '[{"a": 2, "b": 8, "mult": 2}, {"a": 1, "b": 9, "mult": 2}]\n'),
        ((2, 3), (2, 1), (2, 1), "[]\n"),
    ]:
        code, out, _ = run_cli(["mseg", "--a", ",".join(map(str, a)),
                                "--b", ",".join(map(str, b)),
                                "--perm", ",".join(map(str, perm)), "--format", "json"],
                               capsys)
        assert (code, out) == (0, want)
        assert Multisegment.from_json(json.loads(out)) == multisegment_oracle(
            BiSequence(a, b), perm)


def test_expand_json(capsys):
    family = json.dumps({"a": [1, 2], "b": [8, 7]})
    code, out, _ = run_cli(
        ["expand", "--family", family, "--m", "1", "--direction", "g2e",
         "--no-cache"], capsys)
    assert code == 0
    data = json.loads(out)
    assert BiSequence.from_json(data["family"]) == BiSequence((1, 2), (8, 7))
    assert data["direction"] == "g2e"
    entries = {(tuple(e["row"]), tuple(e["col"])): LaurentPoly.from_json(e["coeff"])
               for e in data["entries"]}
    assert entries[((1, 2), (2, 1))] == -1 * LaurentPoly.v(1)
    assert entries[((1, 2), (1, 2))] == LaurentPoly.one()


def test_expand_single_column(capsys):
    family = json.dumps({"a": [1, 2], "b": [8, 7]})
    code, out, _ = run_cli(
        ["expand", "--family", family, "--m", "1", "--direction", "e2g",
         "--w", "2,1", "--no-cache"], capsys)
    data = json.loads(out)
    assert {tuple(e["col"]) for e in data["entries"]} == {(2, 1)}


@pytest.mark.parametrize("family", [["--a", "1,2,3", "--b", "6,5,4"],
                                    ["--a", "1,2", "--b", "8,7", "--m", "2"]])
@pytest.mark.parametrize("direction", ["e2g", "g2e"])
def test_expand_single_column_expands_it_alone(family, direction, capsys, monkeypatch):
    import klforge.cli as cli_module
    import klforge.transition as transition_module

    argv = ["expand", *family, "--direction", direction, "--no-cache"]
    code, full, _ = run_cli(argv, capsys)
    assert code == 0
    data = json.loads(full)
    calls = []
    for module in (cli_module, transition_module):
        for name in ("expand_E_in_G", "expand_G_in_E"):
            def counted(*args, real=getattr(module, name)):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(module, name, counted)
    for col in data["index"]:
        calls.clear()
        code, out, _ = run_cli(argv + ["--w", ",".join(map(str, col))], capsys)
        assert code == 0 and len(calls) == 1 and calls[0][2] == tuple(col)
        one = {**data, "entries": [e for e in data["entries"] if e["col"] == col]}
        assert out == json.dumps(one, sort_keys=True) + "\n"
    assert len(data["index"]) > 2


def test_verify_jsonl_and_exit_code(capsys):
    code, out, err = run_cli(
        ["verify", "--kmax", "2", "--mmax", "2", "--no-cache"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines and all("status" in rec and "check" in rec for rec in lines)
    assert all(rec["status"] != "fail" for rec in lines)
    assert "fail=0" in err


def test_cache_file_written_and_reused(tmp_path, capsys):
    cache = tmp_path / "kl.jsonl"
    code, out1, _ = run_cli(
        ["kl", "--s", "1,2,3,4", "--w", "3,4,1,2", "--cache", str(cache)],
        capsys)
    assert code == 0 and cache.exists()
    first = cache.read_bytes()
    code, out2, _ = run_cli(
        ["kl", "--s", "1,2,3,4", "--w", "3,4,1,2", "--cache", str(cache)],
        capsys)
    assert out2 == out1
    assert cache.read_bytes() == first  # warm run adds nothing


def test_expand_appends_no_memo_record(tmp_path, capsys):
    # its entries are read from module rows, which are not memo records
    cache = tmp_path / "kl.jsonl"
    for direction in ("e2g", "g2e"):
        code, _, _ = run_cli(["expand", "--a", "1,2,3", "--b", "6,5,4", "--direction",
                              direction, "--cache", str(cache)], capsys)
        assert code == 0
    assert not cache.exists()


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env.jsonl"
    monkeypatch.setenv("KLFORGE_CACHE", str(cache))
    code, _, _ = run_cli(["kl", "--s", "1,2,3", "--w", "3,2,1"], capsys)
    assert code == 0 and cache.exists()


def test_no_cache_overrides_env(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "ignored.jsonl"
    monkeypatch.setenv("KLFORGE_CACHE", str(cache))
    code, _, _ = run_cli(["kl", "--s", "1,2,3", "--w", "3,2,1", "--no-cache"],
                         capsys)
    assert code == 0 and not cache.exists()


def test_bad_cache_directory(tmp_path, capsys):
    # every subcommand that opens a memo table rejects the path
    family = json.dumps({"a": [1, 2], "b": [8, 7]})
    for argv in (["kl", "--s", "1,2", "--w", "2,1"],
                 ["pkl", "--s", "1,2", "--w", "2,1", "--m", "2"],
                 ["expand", "--family", family, "--direction", "g2e"],
                 ["verify", "--kmax", "1", "--mmax", "2"]):
        for path, message in (("/nonexistent/dir/cache.jsonl", "cache directory"),
                              (str(tmp_path), "is a directory")):
            code, _, err = run_cli(argv + ["--cache", path], capsys)
            assert code == 1, (argv, path)
            assert err.startswith("error: ") and message in err, (argv, path)


@pytest.mark.parametrize("argv, message", [
    (["--direction", "g2e"], "expand needs --family, or both --a and --b"),
    (["--a", "1,2", "--direction", "g2e"], "expand needs --family, or both --a and --b"),
    (["--b", "8,7", "--direction", "g2e"], "expand needs --family, or both --a and --b"),
    (["--a", "1,2", "--b", "8,7", "--m", "0", "--direction", "g2e"],
     "m must be at least 1"),
    (["--a", "1,2", "--b", "8,7", "--m", "-2", "--direction", "g2e"],
     "m must be at least 1"),
    *((["--family", family, "--direction", "g2e"],
       'a bi-sequence is a JSON object {"a": [...], "b": [...]} of two integer lists')
      for family in ('[1,2]', '{"a":[1,2]}', '{"a":1,"b":2}')),
    (["--a", "1,2", "--b", "8,7", "--w", "2,1,3", "--direction", "g2e"],
     "--w 2,1,3 is not in the matrix index"),
    # a replicated family is given as its strongly regular base and --m
    (["--a", "1,1,2,2", "--b", "9,9,8,8", "--direction", "g2e"],
     "(1,1,2,2 / 9,9,8,8) is not strongly regular"),
    # --a and --b would give a family that is not strongly regular
    *((["--family", '{"a":[1,2],"b":[8,7]}', *given, "--m", "1", "--direction", "g2e"],
       "expand takes --family or --a and --b, not both")
      for given in (["--a", "5,6", "--b", "9,9"], ["--a", "5,6"], ["--b", "9,9"])),
])
def test_expand_rejects_bad_arguments(argv, message, capsys):
    code, out, err = run_cli(["expand", *argv, "--no-cache"], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_expand_unknown_direction_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--a", "1,2", "--b", "8,7", "--direction", "sideways", "--no-cache"])
    assert exc.value.code == 2
    assert "invalid choice: 'sideways'" in capsys.readouterr().err


def test_malformed_permutation_rejected(capsys):
    # a usage error, exit 2, from the argument parsers
    for argv, message in (
            (["kl", "--s", "1,3", "--w", "2,1"], "'1,3' is not one-line notation"),
            (["kl", "--s", "1,x", "--w", "2,1"], "not a permutation: '1,x'"),
            (["kl", "--s", "1,2", "--w", "2,1", "--format", "yaml"], "invalid choice: 'yaml'"),
            (["sigma0", "--a", "1,x", "--b", "8,7"], "not a comma-separated integer list")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv", [
    ["verify", "--kmax", "1", "--mmax", "2", "--format", "table"],
    ["expand", "--a", "1,2", "--b", "8,7", "--direction", "g2e", "--format", "json"],
    ["sigma0", "--a", "1,2,3", "--b", "8,7,6", "--no-cache"],
    ["mseg", "--a", "1,2,3", "--b", "8,7,6", "--perm", "1,2,3", "--cache", "memo.jsonl"],
])
def test_subcommand_rejects_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_python_dash_m_klforge():
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "klforge", "pkl", "--s", "1,2", "--w", "2,1",
         "--m", "2", "--no-cache"],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "q\n"
