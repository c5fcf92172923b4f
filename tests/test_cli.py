import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import GeneralTensor
from ncquad.cli import EXIT_INTERNAL, EXIT_OK, main
from ncquad.corpus import corpus_names, corpus_path
from ncquad.fileformat import (
    load_quintuple,
    parse_quintuple_file,
    tensor_nested_strings,
)


def test_corpus_ships_named_examples():
    names = corpus_names()
    assert "linear.json" in names
    assert "typea-0-1-1.json" in names
    assert "typea-1-1-2.json" in names
    assert "typea-1-2-3.json" in names


def test_check_linear_exit_zero(capsys):
    assert main(["check", str(corpus_path("linear"))]) == 0
    out = capsys.readouterr().out
    assert "geometric: True" in out


def test_check_pure_tensor_exit_one(tmp_path, capsys):
    w = [[[["0", "0"], ["0", "0"]] for _ in range(2)] for _ in range(2)]
    w[0][0][0][0] = "1"
    path = tmp_path / "pure.json"
    path.write_text(json.dumps({"w": w}))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_check_malformed_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_check_wrong_schema_exit_two(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"family": "linear", "w": []}))
    assert main(["check", str(path)]) == 2


def test_certify_exit_codes(tmp_path, capsys):
    assert main(["certify", str(corpus_path("linear")), "--convention", "ruling"]) == 0
    assert main(["certify", str(corpus_path("typea-0-1-1")), "--convention", "literal"]) == 1
    out = capsys.readouterr().out
    assert "lines" in out
    assert main(["certify", str(corpus_path("typea-1-1-2"))]) == 1


def test_certify_writes_canonical_json(tmp_path):
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    assert main(["certify", str(corpus_path("linear")), "--json", str(out1)]) == 0
    assert main(["certify", str(corpus_path("linear")), "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["verdict"] == {"certified": True}
    assert doc["schema"] == "ncquad.certificate/1"


def test_excluded_locus_exit_one(tmp_path, capsys):
    path = tmp_path / "excl.json"
    path.write_text(json.dumps({"family": "type-a", "a": "0", "b": "0", "c": "1"}))
    assert main(["certify", str(path)]) == 1
    assert "excluded locus" in capsys.readouterr().err


def test_zero_tensor_exit_one(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"w": [[[["0", "0"]] * 2] * 2] * 2}))
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err == "rejected: w must be nonzero\n"


@pytest.mark.parametrize("content", [
    json.dumps({"family": "linear", "field": 5}).encode(),
    json.dumps({"family": "linear", "field": None}).encode(),
    b'{"family": "linear", "field": "Q\xff"}',
    b"[" * 100_000,
], ids=["field-int", "field-null", "not-utf8", "deep-nesting"])
def test_malformed_file_exits_two(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["certify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_sweep_deterministic(capsys):
    assert main(["sweep", "--family", "type-a", "--samples", "20", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "--family", "type-a", "--samples", "20", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["samples"] == 20
    assert sum(doc["counts"].values()) == 20


@pytest.mark.parametrize("convention", ["ruling", "literal"])
def test_sweep_stdout_is_pinned(convention, capsys):
    # sweep counts the stage of each decision and renders no certificate
    assert main(["sweep", "--samples", "300", "--seed", "0", "--convention", convention]) == 0
    pinned = Path(__file__).with_name("data") / f"sweep-300-seed0-{convention}.txt"
    assert capsys.readouterr().out == pinned.read_text()


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--height", "0"),
                                         ("--height", "-3")])
def test_sweep_rejects_an_empty_draw_as_input_error(flag, value, capsys):
    assert main(["sweep", flag, value]) == 2
    assert capsys.readouterr().out == ""


def test_sweep_refuses_a_family_outside_its_choices(capsys):
    # argparse refuses any family but type-a before the command runs
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "type-b"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'type-b'" in captured.err and captured.out == ""


def test_cohomology_command(capsys):
    assert main(["cohomology", "--space", "p1xp2", "-m", "-3", "-n", "-2"]) == 0
    out = capsys.readouterr().out
    assert "h^0 = 0" in out and "h^3 = 0" in out
    assert main(["cohomology", "--space", "p1xp2", "-m", "1", "-n", "0"]) == 0
    out = capsys.readouterr().out
    assert "h^0 = 2" in out
    assert main(["cohomology", "--space", "p1", "-m", "-8"]) == 0
    out = capsys.readouterr().out
    assert "h^1 = 7" in out
    assert main(["cohomology", "--space", "p1xp2", "-m", "1"]) == 2
    # argparse refuses a space outside --space's choices before the command runs
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--space", "p3", "-m", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_quiver_and_mutate_commands(capsys):
    assert main(["quiver", str(corpus_path("linear"))]) == 0
    out = capsys.readouterr().out
    assert "total dim 24" in out and "total dim 16" in out
    assert main(["mutate", str(corpus_path("linear"))]) == 0
    out = capsys.readouterr().out
    assert "base change matches mutated Gram: True" in out
    assert main(["quiver", str(corpus_path("typea-1-1-2"))]) == 1


@pytest.mark.parametrize("command", ["quiver", "mutate"])
def test_invalid_window_is_reported_once(tmp_path, command, capsys):
    # the pure tensor e_0000 over F_5 has dims (1, 1, 0), so its window
    # misses the resolution values at three cells
    w = [[[["0", "0"], ["0", "0"]] for _ in range(2)] for _ in range(2)]
    w[0][0][0][0] = "1"
    path = tmp_path / "pure.json"
    path.write_text(json.dumps({"field": "Fp:5", "w": w}))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().out == (
        "invalid window: mismatched cells ((0, 3), (0, 4), (1, 4))\n")


# (corpus file, command) -> (exit code, sha256 of stdout); typea-1-1-2 has
# det <-, w> = 0, so it covers the paths without a square
_RULING, _LITERAL = "quiver --convention ruling", "quiver --convention literal"
_STDOUT_PINS = {
    ("linear", "check"): (0, "a810029f57d25f0e268b9c874f7cd053aa164941f53e3524cf65f322feb02158"),
    ("linear", "check --json"): (0, "84813b8d59250b61d30ce51129632e1576b3bd417e4e45057ade45394eb0015c"),
    ("linear", _RULING): (0, "a88d0b86cc640a6acc9346df537847f080463f598e1f9f1f36e1e124c61cd7d1"),
    ("linear", _LITERAL): (0, "a88d0b86cc640a6acc9346df537847f080463f598e1f9f1f36e1e124c61cd7d1"),
    ("linear", "mutate"): (0, "57f66ceb6508a4a197ff521b5a32f1823098f90fe094b3814568ef7a43ce4108"),
    ("typea-0-1-1", "check"): (0, "a810029f57d25f0e268b9c874f7cd053aa164941f53e3524cf65f322feb02158"),
    ("typea-0-1-1", "check --json"): (0, "cb2fbc65b7a28cc2cd87c87105ca8d9b37471a2516c27211171c8fa4746d776e"),
    ("typea-0-1-1", _RULING): (0, "a88d0b86cc640a6acc9346df537847f080463f598e1f9f1f36e1e124c61cd7d1"),
    ("typea-0-1-1", _LITERAL): (0, "a88d0b86cc640a6acc9346df537847f080463f598e1f9f1f36e1e124c61cd7d1"),
    ("typea-0-1-1", "mutate"): (0, "57f66ceb6508a4a197ff521b5a32f1823098f90fe094b3814568ef7a43ce4108"),
    ("typea-1-1-2", "check"): (0, "e188ca1d454d7b1f28924ce6c4174719409976812636be2ac6ea78bd2732f557"),
    ("typea-1-1-2", "check --json"): (0, "d55aca3dbe48224ef4475cd726fa775ba80752f442db2c1d13a0d0593a248554"),
    ("typea-1-1-2", _RULING): (1, "a9fa5dba6b15aa2d800f8abd17e549f4877085ba396ca11048f56feda4170db2"),
    ("typea-1-1-2", _LITERAL): (1, "a9fa5dba6b15aa2d800f8abd17e549f4877085ba396ca11048f56feda4170db2"),
    ("typea-1-1-2", "mutate"): (1, "d1301876b3a171a42378e87be5b536a380c646660cea32289daeb56b11965c9c"),
    ("typea-1-2-3", "check"): (0, "a810029f57d25f0e268b9c874f7cd053aa164941f53e3524cf65f322feb02158"),
    ("typea-1-2-3", "check --json"): (0, "eb8f5656c7def5ae68389c41144ae8ff0b4d196cb10f8bcd251fb1a9be558636"),
    ("typea-1-2-3", _RULING): (0, "a88d0b86cc640a6acc9346df537847f080463f598e1f9f1f36e1e124c61cd7d1"),
    ("typea-1-2-3", _LITERAL): (0, "a88d0b86cc640a6acc9346df537847f080463f598e1f9f1f36e1e124c61cd7d1"),
    ("typea-1-2-3", "mutate"): (0, "57f66ceb6508a4a197ff521b5a32f1823098f90fe094b3814568ef7a43ce4108"),
}


@pytest.mark.parametrize("name, command", sorted(_STDOUT_PINS))
def test_command_stdout_and_exit_code_are_pinned(name, command, capsys):
    verb, *flags = command.split()
    code = main([verb, str(corpus_path(name)), *flags])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _STDOUT_PINS[(name, command)]


# witness-bearing inputs outside the corpus: ``check`` prints each witness
# coordinate by ``cli._exact_repr``, a ``Fraction``, a residue mod p or an
# (x, y) pair over either; the meet files' certificates print a discriminant
# mod p in the lines stage (``tests/golden.json``)
_DATA = Path(__file__).with_name("data")
_WITNESS_PINS = {
    ("witness-qq-theta", "check"): (1, "3d4437f4676e6917d180c6de76dc73d34b612ee7f3dc2f4fd2cfd4eaf0749590"),
    ("witness-qq-theta", "check --json"): (1, "e934c2dd025914781e2668cdbabd2495677b8fd273cdc0ac286cbc6fab20bfc0"),
    ("witness-qq-rational", "check"): (1, "6e6dd74c78af90488029b11c9d38aed8ef4882ae6f8b7c7dd0ae4338980fe492"),
    ("witness-qq-rational", "check --json"): (1, "4febe23707dd2540716d13866fb454b8faccdd2c850ed9bbe01d74dda672cfad"),
    ("witness-f5-rational", "check"): (1, "f38354932a07d134135768771da69894d3f3b9e6ca7e75ddbb76acdab9ae7ea0"),
    ("witness-f5-rational", "check --json"): (1, "60f2a2f5956ddf2e340bd9acfc730c65105a4e2b536db4da36d38880628fadd1"),
    ("witness-f5-theta", "check"): (1, "54c8c9e7aa8d3b45c75e2f603460b48cb3c58ef9d5d0edf67c6d4ef3d9976303"),
    ("witness-f5-theta", "check --json"): (1, "f9172b73fefb7f033b6d078dbab5294f2453dc13c777a6e2fa40c14f0a2d89d5"),
    ("witness-f7-theta", "check"): (1, "30e66ef90e88d250729b108cc0c8ae8f9afaacf0f78bac4a10b460f06239b3cd"),
    ("witness-f7-theta", "check --json"): (1, "b130c580c71f3cdabff0344a6f5c91d7c8d72d5ff38bdbce0dd920affb7dcf12"),
    ("meet-f7-theta", "check"): (0, "a810029f57d25f0e268b9c874f7cd053aa164941f53e3524cf65f322feb02158"),
    ("meet-f7-theta", "check --json"): (0, "83769b7f13bd9c21b9a847c0dec0293af3ffdaf366bd9a40c3188d23f486d25c"),
    ("meet-f10007-theta", "check"): (0, "a810029f57d25f0e268b9c874f7cd053aa164941f53e3524cf65f322feb02158"),
    ("meet-f10007-theta", "check --json"): (0, "9bd1de4f2ebc2ba49fd0128cb14d240ca9a217d8ac1fd5c56c0d113035634ff9"),
}


@pytest.mark.parametrize("name, command", sorted(_WITNESS_PINS))
def test_witness_stdout_and_exit_code_are_pinned(name, command, capsys):
    verb, *flags = command.split()
    code = main([verb, str(_DATA / f"{name}.json"), *flags])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _WITNESS_PINS[(name, command)]


_WITNESS_MARKS = {
    "witness-qq-theta": ("Fraction(", ")*theta", "FAIL (rational"),
    "witness-qq-rational": ("Fraction(", "FAIL (kernel spanned by a singular"),
    "witness-f5-rational": ("(mod 5)", "FAIL (kernel spanned by a singular"),
    "witness-f5-theta": ("(mod 5)) + (", ")*theta", "FAIL (rational"),
    "witness-f7-theta": ("theta^2 = 6 (mod 7)", "(mod 7)) + (", ")*theta"),
}


@pytest.mark.parametrize("name", sorted(_WITNESS_MARKS))
def test_witness_files_print_their_witness_kinds(name, capsys):
    main(["check", str(_DATA / f"{name}.json")])
    out = capsys.readouterr().out
    assert all(m in out for m in _WITNESS_MARKS[name]), out


def test_stdout_pins_cover_the_corpus():
    assert sorted({name + ".json" for name, _ in _STDOUT_PINS}) == corpus_names()


def test_roundtrip_parse_serialize_parse():
    for name in corpus_names():
        q, meta = load_quintuple(str(corpus_path(name)))
        doc = dict(meta)
        q2, meta2 = parse_quintuple_file(doc)
        assert meta == meta2
        assert GeneralTensor.of(q.w) == GeneralTensor.of(q2.w)


def test_roundtrip_w_form(tmp_path):
    q, meta = load_quintuple(str(corpus_path("linear")))
    doc = {"w": tensor_nested_strings(q), "field": "Q"}
    q2, meta2 = parse_quintuple_file(doc)
    assert GeneralTensor.of(q2.w) == GeneralTensor.of(q.w)
    q3, meta3 = parse_quintuple_file(dict(meta2))
    assert meta2 == meta3 and GeneralTensor.of(q3.w) == GeneralTensor.of(q2.w)


def test_prime_field_input(tmp_path):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(
        {"family": "type-a", "a": "3", "b": "5", "c": "7", "field": "Fp:101"}))
    assert main(["check", str(path)]) == 0


def test_bad_field_spec(tmp_path):
    path = tmp_path / "f3.json"
    path.write_text(json.dumps({"family": "linear", "field": "Fp:3"}))
    assert main(["check", str(path)]) == 2
    path.write_text(json.dumps({"family": "linear", "field": "R"}))
    assert main(["check", str(path)]) == 2


@pytest.mark.parametrize("modulus", ["318665857834031151167461",
                                     "3317044064679887385961981"])
def test_composite_or_undecided_modulus_exits_two(tmp_path, capsys, modulus):
    # a strong pseudoprime to the bases 2..37 is composite, so Z/nZ is no
    # field; a modulus at the deterministic bound is refused, not guessed
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"family": "linear", "field": f"Fp:{modulus}"}))
    assert main(["certify", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    import ncquad.certify

    def broken(*args, **kwargs):
        raise AssertionError("plane at a common root is not decomposable")

    monkeypatch.setattr(ncquad.certify, "line_relation", broken)
    assert main(["certify", str(corpus_path("linear"))]) == EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: AssertionError")
    assert "input error" not in err


def test_internal_error_names_the_ncquad_function_that_raised(monkeypatch, capsys, tmp_path):
    import ncquad.squares

    def broken(*args, **kwargs):
        raise RuntimeError("stage exploded")

    # the innermost ncquad frame is the stage that calls the patched helper;
    # the block quiver is a forced stage, so only rendering reaches it
    monkeypatch.setattr(ncquad.squares, "_pick_kept", broken)
    out = tmp_path / "cert.json"
    assert main(["certify", str(corpus_path("linear")), "--json", str(out)]) == EXIT_INTERNAL
    assert not out.exists()
    err = capsys.readouterr().err.strip()
    assert err.startswith("internal error: RuntimeError: stage exploded (raised in ")
    assert err.endswith("block_quiver, module ncquad.squares)")


def test_value_error_inside_a_stage_is_an_internal_error(monkeypatch, capsys, tmp_path):
    import ncquad.certify

    def broken(*args, **kwargs):
        raise ValueError("unexpected shape")

    monkeypatch.setattr(ncquad.certify, "block_quiver", broken)
    out = tmp_path / "cert.json"
    assert main(["certify", str(corpus_path("linear")), "--json", str(out)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: ValueError: unexpected shape")
    assert "rejected" not in err
    # deciding runs no forced stage, so plain certify cannot meet the fault
    assert main(["certify", str(corpus_path("linear"))]) == EXIT_OK


def test_internal_error_under_python_m_names_the_cli_module(tmp_path):
    # run as a script, the cli module is __main__; open() in cmd_certify
    # raises, so no deeper ncquad frame exists
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ncquad.cli", "certify", str(corpus_path("linear")),
         "--json", str(tmp_path / "missing" / "out.json")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stderr.startswith("internal error: FileNotFoundError: ")
    assert proc.stderr.strip().endswith("(raised in cmd_certify, module ncquad.cli)")


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps site from pre-loading modules, so the child sees exactly
    # what importing the CLI pulls in
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # random is imported by the sweep command alone, traceback by the
    # internal-error path alone
    code = ("import sys, ncquad.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'random', 'traceback') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_corpus_names_and_paths():
    names = corpus_names()
    assert names == sorted(names) and {"linear.json", "typea-1-2-3.json"} <= set(names)
    for name in names:
        path = corpus_path(name)
        assert isinstance(path, Path) and path.is_file()
        assert corpus_path(name.removesuffix(".json")) == path
    with pytest.raises(FileNotFoundError, match="no bundled input named 'nope.json'"):
        corpus_path("nope")
