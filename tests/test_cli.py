from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import goodpairs
from goodpairs import gen_composition, gen_semicomplete, materialize
from goodpairs.cli import build_parser, main
from goodpairs.io import ARRAY_TEXT_MIN_INTS, serialize_composition, serialize_digraph

from test_construct import PRECONDITION_ERRORS

C3 = '{"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}'
SPEC_C3_K2BAR = (
    '{"T": {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}, '
    '"H": [{"n": 2, "arcs": []}, {"n": 2, "arcs": []}, {"n": 2, "arcs": []}]}'
)
SPEC_C3_K1 = (
    '{"T": {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}, '
    '"H": [{"n": 1, "arcs": []}, {"n": 1, "arcs": []}, {"n": 1, "arcs": []}]}'
)


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(SPEC_C3_K2BAR)
    return str(p)


def test_compose(spec_file, capsys):
    assert main(["compose", spec_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 6 and len(doc["arcs"]) == 12


def test_solve_then_verify_round_trip(spec_file, tmp_path, capsys):
    assert main(["solve", spec_file, "--root", "1.1"]) == 0
    pair_text = capsys.readouterr().out
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(pair_text)
    assert main(["compose", spec_file]) == 0
    digraph_file = tmp_path / "q.json"
    digraph_file.write_text(capsys.readouterr().out)
    assert main(["verify", str(digraph_file), str(pair_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True


def test_solve_rejects_undersized_blob(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(SPEC_C3_K1)
    assert main(["solve", str(p), "--root", "1.1"]) == 2
    assert "fewer than 2" in capsys.readouterr().err


@pytest.mark.parametrize("spec, root, message", PRECONDITION_ERRORS)
def test_solve_precondition_errors_are_pinned(spec, root, message, tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(serialize_composition(spec))
    assert main(["solve", str(p), "--root", root]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_gen_and_solve_text_is_pinned(capsys, monkeypatch):
    """gen composition's spec (N = 20018, blobs with arcs) and solve's pairs
    at four roots of it, byte for byte."""
    argv = ["gen", "composition", "--t", "8000", "--blob-min", "2", "--blob-max", "3"]
    assert main(argv + ["--blob-arc-prob", "0.5", "--seed", "11"]) == 0
    spec = capsys.readouterr().out
    assert _sha256(spec) == (
        "e9f2254e1d378e72c9ce04e8a863bd621d8c7d1f79e73615ad86192720950f4e"
    )
    pairs = []
    for root in ("1.1", "2.2", "4001.1", "8000.2"):
        monkeypatch.setattr("sys.stdin", io.StringIO(spec))
        assert main(["solve", "-", "--root", root]) == 0
        pairs.append(capsys.readouterr().out)
    assert _sha256("".join(pairs)) == (
        "cf59790e6c23126db9380c6a60ff4edd7dd5cf07fe052b9d88dc5df306d2c5c6"
    )


def test_pipeline_through_the_entry_point(tmp_path):
    """gen | solve -, gen | compose -, then verify, each a `python -m
    goodpairs` process."""
    src = str(Path(goodpairs.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cli = [sys.executable, "-m", "goodpairs"]
    gen = cli + ["gen", "composition", "--t", "6", "--blob-min", "2", "--blob-max", "3"]
    gen += ["--blob-arc-prob", "0.3", "--seed", "4"]

    def piped(command: list[str]) -> subprocess.CompletedProcess:
        with subprocess.Popen(gen, stdout=subprocess.PIPE, env=env) as producer:
            done = subprocess.run(
                command, stdin=producer.stdout, capture_output=True, text=True, env=env
            )
            producer.stdout.close()
        assert producer.returncode == 0
        return done

    solve = piped(cli + ["solve", "-", "--root", "2.1"])
    compose = piped(cli + ["compose", "-"])
    assert (solve.returncode, compose.returncode) == (0, 0), solve.stderr + compose.stderr
    pair, q = tmp_path / "pair.json", tmp_path / "q.json"
    pair.write_text(solve.stdout)
    q.write_text(compose.stdout)
    verify = subprocess.run(
        cli + ["verify", str(q), str(pair)], capture_output=True, text=True, env=env
    )
    assert verify.returncode == 0, verify.stderr
    assert verify.stdout == '{"valid": true, "problems": []}\n'


def test_solve_deeply_nested_input_is_invalid(tmp_path, capsys):
    p = tmp_path / "nested.json"
    p.write_text("[" * 100_000)
    assert main(["solve", str(p), "--root", "1.1"]) == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err


def test_solve_bad_root_syntax(spec_file, capsys):
    assert main(["solve", spec_file, "--root", "7"]) == 2
    assert "i.j" in capsys.readouterr().err


def test_decide_sc_absent(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(SPEC_C3_K1)
    assert main(["decide-sc", str(p), "--root", "1.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == '{"status": "absent"}\n'
    assert "must enter {3.1}" in captured.err
    assert "must leave {2.1}" in captured.err


def test_decide_sc_found(spec_file, capsys):
    assert main(["decide-sc", spec_file, "--root", "2.2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["root"] == 3


def _gen_semicomplete_spec(tmp_path, capsys, t, blob_max, seed):
    argv = ["gen", "composition", "--outer", "semicomplete", "--blob-min", "1"]
    argv += ["--blob-arc-prob", "0.3", "--t", str(t), "--blob-max", str(blob_max)]
    assert main(argv + ["--seed", str(seed)]) == 0
    p = tmp_path / f"spec{seed}.json"
    p.write_text(capsys.readouterr().out)
    return str(p)


def test_decide_sc_large_restriction_found_and_verified(tmp_path, capsys):
    # Root 1.1's restriction has 32 vertices, over the exact oracle's cap of 14.
    spec = _gen_semicomplete_spec(tmp_path, capsys, 12, 4, 0)
    assert main(["decide-sc", spec, "--root", "1.1"]) == 0
    pair = tmp_path / "pair.json"
    pair.write_text(capsys.readouterr().out)
    assert main(["compose", spec]) == 0
    q = tmp_path / "q.json"
    q.write_text(capsys.readouterr().out)
    assert main(["verify", str(q), str(pair)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_decide_sc_absent_in_under_a_second(tmp_path, capsys):
    # On this 13-vertex restriction the exact oracle runs for minutes.
    spec = _gen_semicomplete_spec(tmp_path, capsys, 6, 3, 24)
    started = time.perf_counter()
    assert main(["decide-sc", spec, "--root", "1.1"]) == 1
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == '{"status": "absent"}\n'
    assert "deficient requirement component" in captured.err


def test_decide_sc_past_a_million_vertices(tmp_path, capsys):
    # Blobs (1, 1, 999 999) on the 3-cycle: 1,000,001 vertices and
    # 1,999,999 arcs, within materialize's arc limit.
    p = tmp_path / "spec.json"
    p.write_text(SPEC_C3_K1.replace('{"n": 1, "arcs": []}]', '{"n": 999999, "arcs": []}]'))
    assert main(["decide-sc", str(p), "--root", "3.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == '{"status": "absent"}\n'
    assert "deficient requirement component" in captured.err


def test_oracle_absent_on_c3(tmp_path, capsys):
    p = tmp_path / "c3.json"
    p.write_text(C3)
    assert main(["oracle", str(p), "--root", "0"]) == 1


def test_oracle_found_and_dot(tmp_path, capsys):
    p = tmp_path / "two.json"
    p.write_text('{"n": 2, "arcs": [[0, 1], [1, 0]]}')
    dot = tmp_path / "out.dot"
    assert main(["oracle", str(p), "--root", "0", "--dot", str(dot)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"root": 0, "out_arcs": [[0, 1]], "in_arcs": [[1, 0]]}
    text = dot.read_text()
    assert "color=blue" in text and "color=red" in text


def test_oracle_undecided_above_cap(tmp_path, capsys):
    arcs = [[i, (i + 1) % 16] for i in range(16)]
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"n": 16, "arcs": arcs}))
    assert main(["oracle", str(p), "--root", "0"]) == 3
    assert "undecided" in capsys.readouterr().err


def test_oracle_enumerate_with_limit(tmp_path, capsys):
    p = tmp_path / "b.json"
    p.write_text(
        '{"n": 3, "arcs": [[0, 1], [1, 0], [0, 2], [2, 0], [1, 2], [2, 1]]}'
    )
    assert main(["oracle", str(p), "--root", "0", "--enumerate", "--limit", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"root": 0, "arcs": [[0, 1], [0, 2]]}


def test_oracle_negative_kernel_cap_is_invalid_input(tmp_path, capsys):
    p = tmp_path / "c3.json"
    p.write_text(C3)
    assert main(["oracle", str(p), "--root", "0", "--kernel-cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: exact-search cap -1 is negative" in captured.err


def test_oracle_enumerate_negative_limit_is_invalid_input(tmp_path, capsys):
    p = tmp_path / "c3.json"
    p.write_text(C3)
    assert main(["oracle", str(p), "--root", "0", "--enumerate", "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: branching limit -1 is negative" in captured.err


def test_verify_rejects_tampered_pair(tmp_path, capsys):
    q = tmp_path / "q.json"
    q.write_text('{"n": 2, "arcs": [[0, 1], [1, 0]]}')
    pair = tmp_path / "p.json"
    pair.write_text('{"root": 0, "out_arcs": [[0, 1]], "in_arcs": [[0, 1]]}')
    assert main(["verify", str(q), str(pair)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False


def test_verify_ids_beyond_int64(tmp_path, capsys):
    big = 2**63 + 1
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"n": 2**63 + 5, "arcs": [[big, 0]]}))
    pair = tmp_path / "p.json"
    pair.write_text(json.dumps({"root": 0, "out_arcs": [[0, big]], "in_arcs": [[big, 0]]}))
    assert main(["verify", str(q), str(pair)]) == 2
    out, err = capsys.readouterr()
    assert out == (
        '{"valid": false, "problems": ["out-branching invalid: arc '
        '(0,9223372036854775809) is not an arc of the host digraph", '
        '"in-branching invalid: not spanning: 1 arcs for 9223372036854775813 '
        'vertices"]}\n'
    )
    assert err == ""


def test_shrink_command(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_C3_K2BAR)
    assert main(["compose", str(spec)]) == 0
    q_text = capsys.readouterr().out
    q = tmp_path / "q.json"
    q.write_text(q_text)
    assert main(["oracle", str(q), "--root", "0"]) == 0
    pair = tmp_path / "pair.json"
    pair.write_text(capsys.readouterr().out)
    assert main(["shrink", str(q), str(pair), "--root", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["removed"] == [1]
    assert doc["kept"] == [0, 2, 3, 4, 5]
    assert doc["pair"]["root"] == 0


def test_shrink_rejects_pair_rooted_elsewhere(tmp_path, capsys):
    assert main(["gen", "composition", "--t", "3", "--blob-min", "1", "--blob-max", "2",
                 "--outer", "semicomplete", "--seed", "1"]) == 0
    spec = tmp_path / "s.json"
    spec.write_text(capsys.readouterr().out)
    assert main(["compose", str(spec)]) == 0
    q = tmp_path / "q.json"
    q.write_text(capsys.readouterr().out)
    assert main(["oracle", str(q), "--root", "0"]) == 0
    pair = tmp_path / "p.json"
    pair.write_text(capsys.readouterr().out)
    assert main(["shrink", str(q), str(pair), "--root", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: pair root 0 is not the restriction's root 2\n"


def test_solve_materialize_only_for_dot(tmp_path, capsys):
    # Two blobs of 1500 vertices on a 2-cycle: 4.5M arcs, over materialize's
    # 2M-arc limit, while the constructor needs only the implicit view.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "T": {"n": 2, "arcs": [[0, 1], [1, 0]]},
        "H": [{"n": 1500, "arcs": []}, {"n": 1500, "arcs": []}],
    }))
    assert main(["solve", str(spec), "--root", "1.1", "--materialize"]) == 0
    assert json.loads(capsys.readouterr().out)["root"] == 0
    dot = tmp_path / "pair.dot"
    assert main(["solve", str(spec), "--root", "1.1", "--materialize", "--dot", str(dot)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "over the limit of 2000000" in err
    assert not dot.exists()


@pytest.mark.parametrize(
    "command, text, root",
    [
        ("solve", SPEC_C3_K2BAR, "1.1"),
        ("decide-sc", SPEC_C3_K2BAR, "1.1"),
        ("oracle", '{"n": 2, "arcs": [[0, 1], [1, 0]]}', "0"),
    ],
    ids=["solve", "decide-sc", "oracle"],
)
def test_dot_write_failure_prints_nothing(command, text, root, tmp_path, capsys):
    p = tmp_path / "input.json"
    p.write_text(text)
    dot = tmp_path / "missing" / "out.dot"
    assert main([command, str(p), "--root", root, "--dot", str(dot)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno 2]") and str(dot) in err


def test_main_builds_the_parser_once(capsys):
    build_parser.cache_clear()
    for _ in range(2):
        assert main(["gen", "strong", "--t", "3"]) == 0
    assert build_parser.cache_info().misses == 1
    assert build_parser.cache_info().hits == 1


def test_gen_commands_deterministic(capsys):
    assert main(["gen", "strong", "--t", "5", "--extra-arcs", "3", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "strong", "--t", "5", "--extra-arcs", "3", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "composition", "--t", "3", "--blob-min", "2",
                 "--blob-max", "2", "--outer", "strong", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["H"]) == 3


def test_gen_invalid_params(capsys):
    assert main(["gen", "strong", "--t", "4", "--extra-arcs", "12"]) == 2


@pytest.mark.parametrize("family", ["strong", "semicomplete", "composition"])
def test_gen_negative_seed_is_named(family, capsys):
    assert main(["gen", family, "--t", "4", "--seed", "-1"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: seed must be a non-negative integer, got -1\n",
    )


def test_ears_is_an_unknown_subcommand(tmp_path, capsys):
    p = tmp_path / "c3.json"
    p.write_text(C3)
    with pytest.raises(SystemExit) as exc:
        main(["ears", str(p), "--vertex", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'ears'" in capsys.readouterr().err


def test_stdin_input(spec_file, capsys, monkeypatch):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO(SPEC_C3_K2BAR))
    assert main(["compose", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 6


def test_malformed_file_is_invalid_input(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{nope")
    assert main(["compose", str(p)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "decide-sc"])
def test_composition_order_beyond_int64_is_invalid_input(command, tmp_path, capsys):
    """A blob of 2^70 vertices used to crash layer extension with an
    OverflowError, exit 1, which reads as a certified absence."""
    doc = json.loads(SPEC_C3_K2BAR)
    doc["H"][1]["n"] = 2**70
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    assert main([command, str(p), "--root", "1.1"]) == 2
    message = "composition.H[1].n: the composition order passes int64"
    assert capsys.readouterr() == ("", f"error: {message} ({2**70 + 2} vertices so far)\n")


@pytest.mark.parametrize("command", ["solve", "decide-sc"])
def test_out_of_memory_is_invalid_input(command, spec_file, capsys, monkeypatch):
    """A blob of 4*10^9 vertices fits int64 but not memory: numpy's
    MemoryError used to exit 1.  The failed allocation is simulated where
    the constructor makes its one array over all N ids."""

    def unable_to_allocate(spec):
        raise MemoryError("Unable to allocate 29.8 GiB for an array with shape (4000000004,)")

    monkeypatch.setattr(goodpairs.CompositionSpec, "blob_of", property(unable_to_allocate))
    assert main([command, spec_file, "--root", "1.2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate 29.8 GiB")


def test_no_command_derives_an_arc_set(tmp_path, capsys, monkeypatch):
    """Every command on int64 ids runs with the ``arcs`` sets of `DiGraph`
    and `Branching` unreadable: the entry points read the arc arrays."""

    def derived(self):
        pytest.fail("an arc set was derived")

    for cls in (goodpairs.DiGraph, goodpairs.Branching):
        monkeypatch.setattr(cls, "arcs", property(derived))

    def write(name: str, text: str) -> str:
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    def run(*argv: str) -> tuple[int, str]:
        code = main(list(argv))
        return code, capsys.readouterr().out

    spec, absent = write("spec.json", SPEC_C3_K2BAR), write("absent.json", SPEC_C3_K1)
    two = write("two.json", '{"n": 2, "arcs": [[0, 1], [1, 0]]}')
    bad = write("bad.json", '{"root": 0, "out_arcs": [[0, 1]], "in_arcs": [[0, 1]]}')
    dot = str(tmp_path / "out.dot")
    code, out = run("compose", spec)
    assert code == 0
    q = write("q.json", out)
    code, out = run("solve", spec, "--root", "1.1", "--dot", dot, "--materialize")
    assert code == 0 and "color=blue" in Path(dot).read_text()
    pair = write("pair.json", out)
    assert run("decide-sc", spec, "--root", "2.2", "--dot", dot)[0] == 0
    assert run("decide-sc", absent, "--root", "1.1", "--dot", dot)[0] == 1
    assert run("oracle", two, "--root", "0", "--dot", dot)[0] == 0
    assert run("oracle", q, "--root", "0", "--enumerate", "--limit", "3")[0] == 0
    assert run("verify", q, pair) == (0, '{"valid": true, "problems": []}\n')
    code, out = run("verify", two, bad)
    assert code == 2 and "branchings share arc (0,1)" in out
    assert run("shrink", q, pair, "--root", "0")[0] == 0


def test_printed_text_is_pinned(tmp_path, capsys):
    """What ``solve --dot --materialize``, ``decide-sc --dot``, ``oracle
    --enumerate`` and ``shrink`` print on seeded inputs, byte for byte: exit
    code, standard output and DOT file.  The last shrink prints trees of at
    least `ARRAY_TEXT_MIN_INTS` ints each, which the array writer writes."""
    texts = []
    dot = tmp_path / "out.dot"

    def run(*argv) -> str:
        texts.append(f"{main([str(a) for a in argv])}\n")
        out = capsys.readouterr().out
        texts.append(out)
        if dot.exists():
            texts.append(dot.read_text())
            dot.unlink()
        return out

    def write(name: str, text: str) -> Path:
        (tmp_path / name).write_text(text)
        return tmp_path / name

    for seed in range(4):
        spec = gen_composition(3 + seed, (2, 3), 0.3, "strong", seed)
        spec = write("s.json", serialize_composition(spec))
        for root in ("1.1", f"{3 + seed}.2"):
            run("solve", spec, "--root", root, "--dot", dot, "--materialize")
    for seed in range(8):
        spec = gen_composition(3, (1, 3), 0.3, "semicomplete", seed)
        spec = write("s.json", serialize_composition(spec))
        for root in ("1.1", "2.1"):
            run("decide-sc", spec, "--root", root, "--dot", dot)
    assert {"0\n", "1\n"} <= set(texts)
    for seed in range(4):
        d = write("d.json", serialize_digraph(gen_semicomplete(4, 0.5, seed)))
        run("oracle", d, "--root", seed, "--enumerate", "--limit", 30)
    for blobs, seed in (((2, 2), 0), ((150, 170), 1)):
        spec = gen_composition(4, blobs, 0.5, "semicomplete", seed)
        q = write("q.json", serialize_digraph(materialize(spec)))
        spec = write("s.json", serialize_composition(spec))
        pair = write("p.json", run("solve", spec, "--root", "1.1"))
        shrunk = json.loads(run("shrink", q, pair, "--root", 0))
    assert 2 * (len(shrunk["kept"]) - 1) >= ARRAY_TEXT_MIN_INTS  # per tree
    assert _sha256("".join(texts)) == (
        "da2e701bf3ee41c131ef1f693f745d2de65f79176fc46ea1edbfad0914423a4a"
    )
