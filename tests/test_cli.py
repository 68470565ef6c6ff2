import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfe import QQ, quantum_integer
from qfe.cli import (DEMO_NAMES, SEEDS_257, SeedSpec, SeedSpecError,
                     builtin_sequence, main, parse_ring_flag, parse_seed_spec)
from tests.conftest import SEED_COEFFS_257


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def spec_p2(tmp_path):
    return write_spec(tmp_path, "p2.json", {
        "ring": {"kind": "rational"},
        "primes": [2],
        "seeds": {"2": ["1", "1"]},
    })


@pytest.fixture
def spec_257(tmp_path):
    return write_spec(tmp_path, "p257.json", {
        "ring": {"kind": "rational"},
        "primes": [2, 5, 7],
        "seeds": {str(p): [str(c) for c in cs]
                  for p, cs in SEED_COEFFS_257.items()},
    })


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_quantum_seed_table(capsys, spec_p2):
    code, out, _ = run(capsys, "construct", spec_p2, "--upto", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1\ttrue\t0\t1"
    assert lines[1] == "2\ttrue\t1\t1 + q"
    assert lines[2] == "3\tfalse\t-\t0"
    assert lines[3] == "4\ttrue\t3\t1 + q + q^2 + q^3"
    assert lines[7] == "8\ttrue\t7\t" + quantum_integer(8).pretty()
    assert len(lines) == 8


def test_construct_row_ten_of_the_257_spec(capsys, spec_257):
    code, out, _ = run(capsys, "construct", spec_257, "--upto", "10")
    assert code == 0
    row = out.splitlines()[9].split("\t")
    expected = quantum_integer(10).dilate(3).exact_div(quantum_integer(10))
    assert row == ["10", "true", "18", expected.pretty()]


def test_construct_writes_out_file(capsys, spec_p2, tmp_path):
    out_path = tmp_path / "table.tsv"
    code, out, _ = run(capsys, "construct", spec_p2, "--upto", "4",
                       "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().splitlines()[3] == "4\ttrue\t3\t1 + q + q^2 + q^3"


def test_construct_is_deterministic(capsys, spec_257):
    first = run(capsys, "construct", spec_257, "--upto", "30")
    second = run(capsys, "construct", spec_257, "--upto", "30")
    assert first == second


def test_malformed_inputs_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "construct", str(tmp_path / "absent.json"))
    assert code == 2 and "error:" in err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, _, err = run(capsys, "construct", str(bad_json))
    assert code == 2 and "error:" in err

    for broken in (
        {"ring": {"kind": "rational"}, "primes": [2]},
        {"ring": {"kind": "nope"}, "primes": [2], "seeds": {"2": ["1"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"3": ["1"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": []}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1", "0"]}},
        {"ring": {"kind": "rational"}, "primes": "all", "seeds": {}},
        {"ring": {"kind": "rational"}, "primes": [4], "seeds": {"4": ["1"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1", "1/0"]}},
        {"ring": {"kind": "cyclotomic", "d": 4}, "primes": [2],
         "seeds": {"2": [["1", "0"], ["1/0", "1"]]}},
        {"ring": {"kind": "prime_field", "p": float("inf")}, "primes": [2],
         "seeds": {"2": ["1"]}},
        # Ring fields are JSON integers, capped before any work runs.
        {"ring": {"kind": "prime_field", "p": 7.5}, "primes": [2],
         "seeds": {"2": ["1"]}},
        {"ring": {"kind": "prime_field", "p": "7"}, "primes": [2],
         "seeds": {"2": ["1"]}},
        {"ring": {"kind": "cyclotomic", "d": True}, "primes": [2],
         "seeds": {"2": [["1"]]}},
        {"ring": {"kind": "cyclotomic", "d": "12"}, "primes": [2],
         "seeds": {"2": [["1", "0", "0", "0"]]}},
        {"ring": {"kind": "cyclotomic", "d": 10**9}, "primes": [2],
         "seeds": {"2": [["1"]]}},
        {"ring": {"kind": "prime_field", "p": 2**61 - 1}, "primes": [2],
         "seeds": {"2": ["1"]}},
        {"ring": {"kind": "rational"}, "primes": [2**61 - 1],
         "seeds": {str(2**61 - 1): ["1"]}},
        # One literal grammar: a JSON integer or "a" / "a/b".
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1e999999999"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": [" 7 "]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1_000"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["2.5"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": [True]}},
        {"ring": {"kind": "prime_field", "p": 7}, "primes": [2],
         "seeds": {"2": ["1/2"]}},
        {"ring": {"kind": "cyclotomic", "d": 4}, "primes": [2],
         "seeds": {"2": [[1.5, 0]]}},
        # Seed keys are the canonical decimal of a positive integer.
        *({"ring": {"kind": "rational"}, "primes": [2], "seeds": {key: ["1", "1"]}}
          for key in ("+2", " 2", "2 ", "0_2", "02", "\u0662", "0", "-2")),
    ):
        path = write_spec(tmp_path, "broken.json", broken)
        code, out, err = run(capsys, "construct", path)
        assert code == 2, broken
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    # Decoder failures that are not JSONDecodeError: bytes that are not
    # UTF-8, an integer over Python's digit limit, very deep nesting.
    for raw in (b"\xff\xfe",
                b'{"primes": [1' + b"0" * 5000 + b"]}",
                b"[" * 100000 + b"]" * 100000):
        bad_json.write_bytes(raw)
        code, out, err = run(capsys, "verify", str(bad_json))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_noncommuting_seeds_exit_3(capsys, tmp_path):
    path = write_spec(tmp_path, "noncomm.json", {
        "ring": {"kind": "rational"},
        "primes": [2, 3],
        "seeds": {"2": ["1", "1"], "3": ["1", "1", "2"]},
    })
    code, _, err = run(capsys, "construct", path)
    assert code == 3
    assert "do not commute" in err
    assert "1 + q + q^2 + q^3 + 2q^4 + 2q^5" in err
    assert "1 + q + 2q^2 + q^3 + q^4 + 2q^5" in err


def test_verify_builtin_quantum(capsys):
    code, out, _ = run(capsys, "verify", "quantum", "--upto", "64")
    assert code == 0
    assert "fe_ok: true" in out
    assert "first_failure: none" in out


def test_verify_constant2_fails_at_one_one(capsys):
    code, out, _ = run(capsys, "verify", "constant2", "--upto", "4")
    assert code == 1
    assert "fe_ok: false" in out
    assert "commutativity_ok: true" in out
    assert "first_failure: m=1 n=1 lhs=2 rhs=4" in out


def test_verify_seed_file_up_to_100(capsys, spec_257):
    code, out, _ = run(capsys, "verify", spec_257, "--upto", "100")
    assert code == 0
    assert "fe_ok: true" in out


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "quantum", "--upto", "16", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["fe_ok"] and obj["commutativity_ok"] and obj["support_ok"]
    assert obj["first_failure"] is None
    assert list(obj) == sorted(obj)

    code, out, _ = run(capsys, "verify", "constant2", "--upto", "4", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["first_failure"] == {"m": 1, "n": 1, "lhs": "2", "rhs": "4"}


def test_decompose_builtins(capsys):
    code, out, _ = run(capsys, "decompose", "monomial", "--upto", "12")
    assert code == 0
    lines = out.splitlines()
    assert "t: 1" in lines
    assert "5\t4\t1\t1" in lines

    code, out, _ = run(capsys, "decompose", "power7-third", "--upto", "400")
    assert code == 0
    assert "t: 1/3" in out

    code, out, _ = run(capsys, "decompose", "quantum", "--upto", "12")
    assert code == 0
    assert "t: 0" in out


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "power7-third", "--upto", "350",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["t"] == "1/3"
    assert obj["delta"] == {"1": 0, "7": 2, "49": 16, "343": 114}
    assert obj["lambda"]["49"] == "1"
    assert obj["g"]["343"] == "1"


def test_decompose_refuses_non_solutions(capsys):
    code, out, _ = run(capsys, "decompose", "constant2", "--upto", "8")
    assert code == 1
    assert "fe_ok: false" in out


def test_oracle_unique_families(capsys):
    code, out, _ = run(capsys, "oracle", "--upto", "12")
    assert code == 0
    assert "families: 1" in out
    assert "a = 1" in out
    assert f"f_12 = {quantum_integer(12).pretty()}" in out
    assert "unique: the all-ones family" in out

    code, out, _ = run(capsys, "oracle", "--upto", "3")
    assert code == 0
    assert "f_3 = 1 + q + q^2" in out

    code, out, _ = run(capsys, "oracle", "--upto", "5")
    assert code == 0
    assert "f_5 = 1 + q + q^2 + q^3 + q^4" in out


def test_oracle_range_guard(capsys):
    code, _, err = run(capsys, "oracle", "--upto", "26")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "oracle", "--upto", "2")
    assert code == 2


def test_upto_caps(capsys, spec_p2):
    code, _, err = run(capsys, "construct", spec_p2, "--upto", "100000")
    assert code == 2 and "--upto" in err


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demos_pass(capsys, name):
    code, out, _ = run(capsys, "demo", name)
    assert code == 0, out
    assert "FAIL" not in out


def test_unknown_demo_and_builtin(capsys):
    code, _, err = run(capsys, "demo", "nonesuch")
    assert code == 2 and "unknown demo" in err
    code, _, err = run(capsys, "verify", "nonesuch-builtin")
    assert code == 2


def test_ring_flag_parsing():
    assert parse_ring_flag("rational") is QQ
    assert parse_ring_flag("gfp:5").p == 5
    assert parse_ring_flag("cyclotomic:12").d == 12
    assert parse_ring_flag("cyclotomic:1000").d == 1000
    assert parse_ring_flag("gfp:2147483647").p == 2**31 - 1
    for bad in ("float", "gfp:x", "gfp:4", "gfp:", "cyclotomic:x",
                "cyclotomic:0", "gfp", "gfp:7.5", "gfp: 7", "gfp:+7",
                "gfp:7_0", "cyclotomic:12.0", "cyclotomic:1001",
                "gfp:2305843009213693951", "gfp:" + "9" * 5000):
        with pytest.raises(SeedSpecError):
            parse_ring_flag(bad)


@pytest.mark.parametrize("flag", ["gfp:x", "gfp:4", "cyclotomic:x",
                                  "cyclotomic:1001", "gfp:2305843009213693951"])
def test_bad_ring_flag_exits_2(capsys, flag):
    code, out, err = run(capsys, "verify", "quantum", "--ring", flag)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_explicit_ring_must_match_seed_file(capsys, spec_p2, tmp_path):
    code, _, err = run(capsys, "verify", spec_p2, "--ring", "gfp:3")
    assert code == 2 and "conflicts" in err and err.count("\n") == 1
    code, _, err = run(capsys, "decompose", spec_p2, "--ring", "cyclotomic:4")
    assert code == 2 and "conflicts" in err
    code, out, _ = run(capsys, "verify", spec_p2, "--upto", "16",
                       "--ring", "rational")
    assert code == 0 and "fe_ok: true" in out
    # Without --ring a seed file is read over its own ring.
    spec_z = write_spec(tmp_path, "z4.json", {
        "ring": {"kind": "cyclotomic", "d": 4},
        "primes": [3],
        "seeds": {"3": [["1", "0"], ["0", "1"], ["-1", "0"]]},
    })
    code, out, err = run(capsys, "verify", spec_z, "--upto", "27")
    assert code == 0 and "fe_ok: true" in out, err
    code, out, _ = run(capsys, "verify", spec_z, "--upto", "27",
                       "--ring", "cyclotomic:4")
    assert code == 0 and "fe_ok: true" in out


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6)
                | st.sampled_from(["1", "-2", "3/4", "1/0", "0/0", "x", "7",
                                   float("inf"), float("nan")]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)
ring_params = json_scalars | st.sampled_from(
    [7, 4, 0, -3, 7.5, "7", True, float("inf"), float("nan")])
ring_descriptors = json_values | st.fixed_dictionaries(
    {"kind": st.sampled_from(["rational", "prime_field", "cyclotomic", "x"]),
     "p": ring_params, "d": ring_params})
coefficient_lists = json_values | st.lists(
    json_scalars | st.lists(json_scalars, max_size=3), max_size=4)
seed_specs = json_values | st.fixed_dictionaries(
    {"ring": ring_descriptors,
     "primes": json_values | st.lists(st.integers(-3, 13), max_size=3)
     | st.just("all"),
     "seeds": json_values | st.dictionaries(
         st.sampled_from(["2", "3", "5", "02", "x"]) | st.text(max_size=3),
         coefficient_lists, max_size=3)})

# Seed files of the documented shape, so that main also reaches exits 0 and 3.
literals = st.integers(-2, 2) | st.sampled_from(["1", "-1", "3/4", "0", "0/5"])
well_formed_specs = st.sampled_from([
    ({"kind": "rational"}, literals),
    ({"kind": "prime_field", "p": 3}, literals.filter(lambda c: "/" not in str(c))),
    ({"kind": "cyclotomic", "d": 3}, st.lists(literals, min_size=2, max_size=2)),
]).flatmap(lambda ring_scalars: st.fixed_dictionaries({
    "ring": st.just(ring_scalars[0]),
    "primes": st.just([2, 3]),
    "seeds": st.fixed_dictionaries({
        p: st.lists(ring_scalars[1], min_size=1, max_size=3) for p in ("2", "3")}),
}))


@settings(max_examples=300, deadline=None)
@given(obj=seed_specs)
@example(obj={"ring": {"kind": "rational"}, "primes": [2],
              "seeds": {"2": ["1", "1/0"]}})
@example(obj={"ring": {"kind": "cyclotomic", "d": float("inf")},
              "primes": [2], "seeds": {"2": [["1"]]}})
@example(obj={"ring": {"kind": "cyclotomic", "d": 10**9},
              "primes": [2], "seeds": {"2": [["1"]]}})
@example(obj={"ring": {"kind": "prime_field", "p": 2**61 - 1},
              "primes": [2], "seeds": {"2": ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2**61 - 1],
              "seeds": {str(2**61 - 1): ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2],
              "seeds": {"2": ["1e999999999"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {"+2": ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {" 2": ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {"0_2": ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {"\u0662": ["1"]}})
def test_parse_seed_spec_returns_a_spec_or_raises_seed_spec_error(obj):
    try:
        spec = parse_seed_spec(obj)
    except SeedSpecError:
        return
    assert isinstance(spec, SeedSpec)
    # Each key is the decimal text of the prime it seeds.
    assert sorted(map(str, spec.seeds)) == sorted(obj["seeds"])


@pytest.fixture(scope="module")
def seed_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "seed.json"


@settings(max_examples=200, deadline=None)
@given(obj=seed_specs | well_formed_specs)
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1", "1"]}})
@example(obj={"ring": {"kind": "cyclotomic", "d": 10**9},
              "primes": [2], "seeds": {"2": [["1"]]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2],
              "seeds": {"2": ["1e999999999"]}})
def test_main_never_raises_on_a_seed_file(obj, seed_path):
    seed_path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(seed_path), "--upto", "8"])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def test_verify_builtin_over_prime_field(capsys):
    code, out, _ = run(capsys, "verify", "quantum", "--upto", "16",
                       "--ring", "gfp:2")
    assert code == 0
    assert "fe_ok: true" in out


def test_builtin_seeds_match_ratio_definition():
    for p, h in SEEDS_257.items():
        assert h == quantum_integer(p).dilate(3).exact_div(quantum_integer(p))
    assert builtin_sequence("quantum").eval(3) == quantum_integer(3)


DECOMPOSE_FIRST = b"sequence: seeds(P={2,5,7})\n"
CONSTRUCT_FIRST = b"1\ttrue\t0\t1\n"


@pytest.mark.parametrize("command, first_line, unbuffered", [
    pytest.param("decompose", DECOMPOSE_FIRST, "", id="buffered"),
    pytest.param("decompose", DECOMPOSE_FIRST, "1", id="unbuffered"),
    pytest.param("construct", CONSTRUCT_FIRST, "", id="construct-buffered"),
    pytest.param("construct", CONSTRUCT_FIRST, "1", id="construct-unbuffered"),
])
def test_closed_stdout_exits_141_without_a_traceback(command, first_line, unbuffered):
    # About 400 kB of output, far more than a pipe holds, written line by line.
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered, "PYTHONPATH": path}
    argv = [sys.executable, "-m", "qfe", command,
            str(root / "tests" / "golden" / "seeds-257.json"), "--upto", "2000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == first_line
    assert code == 141 and err == b""
