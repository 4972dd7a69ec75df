import contextlib
import hashlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untensor.cli import main
from untensor.tensor_space import load_instance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_writes_instance_with_one_quadric(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        code, _ = run(capsys, "gen", "--m", "2", "--n", "2", "--seed", "7", "--out", str(path), "--quiet")
        assert code == 0
        inst = load_instance(path)
        assert inst.quadric_count == 1

    def test_pointed_instance_has_base_point(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        code, _ = run(capsys, "gen", "--m", "4", "--n", "3", "--seed", "1", "--pointed", "--out", str(path), "--quiet")
        assert code == 0
        payload = json.loads(path.read_text())
        assert "base_point" in payload and len(payload["base_point"]) == 12

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--m", "3", "--n", "2", "--seed", "5", "--out", str(a), "--quiet")
        run(capsys, "gen", "--m", "3", "--n", "2", "--seed", "5", "--out", str(b), "--quiet")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_arguments_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--m", "2"])
        assert excinfo.value.code == 2
        code, _ = run(capsys, "gen", "--m", "0", "--n", "2", "--seed", "1")
        assert code == 2

    def test_shape_cap_exit_2_before_generating(self, capsys, monkeypatch):
        import untensor.cli as cli_mod

        class Generated(Exception):
            pass

        def generate(*args, **kwargs):
            raise Generated

        monkeypatch.setattr(cli_mod, "generate_instance", generate)
        for argv in (
            ["gen", "--m", "11", "--n", "10"],
            ["gen", "--m", "100", "--n", "100", "--pointed"],
            ["spin-demo", "--dims", "101x1"],
            ["spin-demo", "--dims", "2x2,50x3"],
        ):
            assert run(capsys, *argv)[0] == 2
        # m * n == 100 is allowed through to generation.
        with pytest.raises(Generated):
            main(["gen", "--m", "10", "--n", "10"])
        with pytest.raises(Generated):
            main(["spin-demo", "--dims", "100x1"])

    @pytest.mark.parametrize("bad", ["-1", "0"])
    def test_sampler_range_below_one_exit_2(self, capsys, bad):
        code, _ = run(capsys, "gen", "--m", "3", "--n", "2", "--seed", "1", "--sampler-range", bad, "--pointed")
        assert code == 2

    def test_sampler_range_survives_save_and_load(self, tmp_path, capsys):
        path = tmp_path / "r3.json"
        code, _ = run(capsys, "gen", "--m", "3", "--n", "2", "--seed", "1", "--sampler-range", "3", "--out", str(path), "--quiet")
        assert code == 0
        assert load_instance(path).sampler_range == 3


class TestRecover:
    @pytest.fixture
    def instance_file(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        run(capsys, "gen", "--m", "2", "--n", "2", "--seed", "7", "--pointed", "--out", str(path), "--quiet")
        return path

    def test_success_report(self, tmp_path, capsys, instance_file):
        report_path = tmp_path / "r.json"
        code, _ = run(capsys, "recover", str(instance_file), "--seed", "3", "--out", str(report_path), "--quiet")
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["success"] is True
        assert report["sheet_dims"] == [2, 2]
        assert "/" in report["lambda"] or report["lambda"].lstrip("-").isdigit()
        assert report["oracle_calls"] > 0

    def test_rectangular_dims(self, tmp_path, capsys):
        inst = tmp_path / "i43.json"
        run(capsys, "gen", "--m", "4", "--n", "3", "--seed", "2", "--out", str(inst), "--quiet")
        rep = tmp_path / "r43.json"
        code, _ = run(capsys, "recover", str(inst), "--seed", "4", "--out", str(rep), "--quiet")
        assert code == 0
        assert json.loads(rep.read_text())["sheet_dims"] == [4, 3]

    def test_trivial_shape(self, tmp_path, capsys):
        inst = tmp_path / "i15.json"
        run(capsys, "gen", "--m", "1", "--n", "5", "--seed", "2", "--out", str(inst), "--quiet")
        rep = tmp_path / "r15.json"
        code, _ = run(capsys, "recover", str(inst), "--out", str(rep), "--quiet")
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["success"] is True and report["sheet_dims"] == [5, 1]

    def test_byte_identical_reports(self, tmp_path, capsys, instance_file):
        a, b = tmp_path / "ra.json", tmp_path / "rb.json"
        run(capsys, "recover", str(instance_file), "--seed", "9", "--out", str(a), "--quiet")
        run(capsys, "recover", str(instance_file), "--seed", "9", "--out", str(b), "--quiet")
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_instance_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "recover", str(bad))
        assert code == 2

    def test_zero_denominator_instance_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({"m": 1, "n": 1, "seed": None, "scramble": [["1/0"]]}))
        code, _ = run(capsys, "recover", str(bad))
        assert code == 2

    def test_wrong_sized_scramble_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"m": 2, "n": 2, "seed": None, "scramble": [["1", "0", "0", "0"]] * 3}))
        code, _ = run(capsys, "recover", str(bad))
        assert code == 2

    def test_infinite_dimension_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps({"m": float("inf"), "n": 2, "seed": None, "scramble": []}))
        code, _ = run(capsys, "recover", str(bad))
        assert code == 2

    def test_pointed_report_ignores_seed(self, tmp_path, capsys, instance_file):
        a, b = tmp_path / "s1.json", tmp_path / "s2.json"
        run(capsys, "recover", str(instance_file), "--seed", "1", "--out", str(a), "--quiet")
        run(capsys, "recover", str(instance_file), "--seed", "2", "--out", str(b), "--quiet")
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["samples_used"] == 0

    def test_retry_exhausted_exit_3(self, capsys, monkeypatch, instance_file):
        import untensor.cli as cli_mod
        from untensor.errors import RetryExhausted

        def exhausted(*args, **kwargs):
            raise RetryExhausted("no certified sheet pair among the candidates")

        monkeypatch.setattr(cli_mod, "recover_factors", exhausted)
        code, _ = run(capsys, "recover", str(instance_file))
        assert code == 3


# (m, n, seed) -> (sha256 of `gen --pointed`, `recover --seed <seed>` report).
# Frozen values: a refactor that claims identical behaviour must keep them.
_GOLDEN = {
    (2, 3, 1): (
        "72133e7e6c354423784634c05379c3e5726d1b11e908a0163651971bfe3d2db6",
        {"lambda": "-100", "oracle_calls": 14, "samples_used": 0, "sheet_dims": [3, 2], "swap": True},
    ),
    (3, 3, 1): (
        "9d7c61fd3dd7b8726fb4657173a857426a0e7c1314e389885f07d89009f0acea",
        {"lambda": "-32", "oracle_calls": 17, "samples_used": 0, "sheet_dims": [3, 3], "swap": True},
    ),
    (3, 4, 1): (
        "c09d5023e70fa05d53245dedb8dcb85c0c1595dd07f59ebf32d6ba95e988aea1",
        {"lambda": "6", "oracle_calls": 20, "samples_used": 0, "sheet_dims": [4, 3], "swap": True},
    ),
    (3, 3, 2): (
        "273b683aa4679362c239bd90dd07ed6e92c5027fc610848858fbcbe3a15b247c",
        {"lambda": "30", "oracle_calls": 17, "samples_used": 0, "sheet_dims": [3, 3], "swap": False},
    ),
    # Trivial shapes: the first sheet is all of V, the second the ray of w0.
    (1, 3, 1): (
        "0ba0e7f6179cfc1e59abfe0382ca92ed82a531b609990f34e4a8656472aaed47",
        {"lambda": "20", "oracle_calls": 0, "samples_used": 0, "sheet_dims": [3, 1], "swap": True},
    ),
    (3, 1, 1): (
        "2906a518e04239c66e1832c092621fb6485c0e1c0793ae12e3a193b1968316c7",
        {"lambda": "8", "oracle_calls": 0, "samples_used": 0, "sheet_dims": [3, 1], "swap": False},
    ),
    # The first scramble drawn for these two seeds is singular, so they pin
    # the redraw from the same stream.
    (2, 2, 29): (
        "bd20e828313743be02e55a530f1bb3bffa1adbd5a074838d395f476361ca978f",
        {"lambda": "-9", "oracle_calls": 12, "samples_used": 0, "sheet_dims": [2, 2], "swap": True},
    ),
    (1, 1, 9): (
        "9dafeecb663c043344f02a35b1b256edcc3f734b4e65f7dd5fafcf743b8b81b6",
        {"lambda": "-2", "oracle_calls": 0, "samples_used": 0, "sheet_dims": [1, 1], "swap": False},
    ),
}


@pytest.mark.parametrize("m, n, seed", sorted(_GOLDEN))
def test_golden_gen_and_recover_bytes(tmp_path, capsys, m, n, seed):
    digest, fields = _GOLDEN[(m, n, seed)]
    inst = tmp_path / "g.json"
    run(capsys, "gen", "--m", str(m), "--n", str(n), "--seed", str(seed), "--pointed", "--out", str(inst), "--quiet")
    assert hashlib.sha256(inst.read_bytes()).hexdigest() == digest
    code, out = run(capsys, "recover", str(inst), "--seed", str(seed))
    assert code == 0
    expected = {"success": True, "m": m, "n": n, **fields}
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


# sha256 of the stdout of the other commands, frozen like _GOLDEN.
_GOLDEN_OUTPUTS = {
    ("spin-demo", "--dims", "4x3,2x6,1x12", "--seed", "5"): (
        0,
        "4bf7fa2ee68599d9fb3f989583c8d88ea60abf9e987f67607b8e825260a519f7",
    ),
    ("props", "--suite", "all", "--trials", "2", "--seed", "3"): (
        0,
        "8e4e982ba13b1ffd52445d4df39a3d0870059404fdedf63900070b27b04bd43c",
    ),
    ("props", "--suite", "all", "--trials", "2", "--seed", "3", "--inject-fault"): (
        1,
        "4fecb5f5bb60e3adf59743e49f7b5639e736df82933de9f0b0348b200b4f2d20",
    ),
    ("naturality", "--trials", "3", "--seed", "4"): (
        0,
        "0bdb5226047d21a6130dffcd286c550901dba3a3f7cf5deef20ccaf031c5f2b0",
    ),
}


@pytest.mark.parametrize("argv", sorted(_GOLDEN_OUTPUTS))
def test_golden_command_bytes(capsys, argv):
    code, out = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _GOLDEN_OUTPUTS[argv]


# Corners (a, b, c) on a 3x3 instance, one set per completion case: a
# hidden factor pair (alpha, beta) stands for its embedded product, and an
# integer k for k * a.  Each completion's stdout is pinned by its sha256.
_A, _B, _C = ((1, 2, -1), (3, 0, 1)), ((1, 2, -1), (2, -1, 1)), ((0, 1, 1), (3, 0, 1))
_GOLDEN_SQUARES = {
    "generic": ((_A, _B, _C), "2d6fc4d37c4703aa175b107de0c2896ba88ef656807061d3777bc9a7716bd22d"),
    "column-proportional": ((_A, 2, _C), "25ae45c18a52be157e2e2dc5d113a800fa7cf985bfeff618b56f5313769aa82f"),
    "row-proportional": ((_A, _B, -3), "48985f12937df1bc747d24827125a70e9056ebf1fc24fd16882781df7b814275"),
    "both-proportional": ((_A, 2, -3), "e226777a8152245f07a34cfd576eff0005c8774ad7e77762ea7e14a2ca83437f"),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_SQUARES))
def test_golden_square_complete_bytes(tmp_path, capsys, case):
    corners, digest = _GOLDEN_SQUARES[case]
    path = tmp_path / "sq.json"
    run(capsys, "gen", "--m", "3", "--n", "3", "--seed", "4", "--out", str(path), "--quiet")
    inst = load_instance(path)
    a = inst.embed_simple(*corners[0])
    vectors = [a] + [tuple(x * c for x in a) if isinstance(c, int) else inst.embed_simple(*c) for c in corners[1:]]
    corner_file = tmp_path / "corners.json"
    corner_file.write_text(json.dumps({k: [str(x) for x in v] for k, v in zip("abc", vectors)}))
    code, out = run(capsys, "square-complete", str(path), str(corner_file))
    assert code == 0 and json.loads(out)["case"] == case
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSimpleCheckAndSquares:
    @pytest.fixture
    def ident_file(self, tmp_path):
        payload = {
            "m": 2,
            "n": 2,
            "seed": None,
            "scramble": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        }
        path = tmp_path / "ident.json"
        path.write_text(json.dumps(payload))
        return path

    def test_simple_check(self, capsys, ident_file):
        code, out = run(capsys, "simple-check", str(ident_file), "--vector", "[1,2,3,6]")
        assert code == 0 and json.loads(out)["simple"] is True
        code, out = run(capsys, "simple-check", str(ident_file), "--vector", "[1,0,0,1]")
        assert code == 0 and json.loads(out)["simple"] is False

    def test_simple_check_length_mismatch(self, capsys, ident_file):
        code, _ = run(capsys, "simple-check", str(ident_file), "--vector", "[1,0]")
        assert code == 2

    def test_simple_check_zero_denominator_exit_2(self, capsys, ident_file):
        code, _ = run(capsys, "simple-check", str(ident_file), "--vector", '["1/0", 0, 0, 0]')
        assert code == 2

    def test_simple_check_infinite_scalar_exit_2(self, capsys, ident_file):
        code, _ = run(capsys, "simple-check", str(ident_file), "--vector", "[Infinity, 0, 0, 0]")
        assert code == 2

    def test_simple_check_string_vector_exit_2(self, capsys, ident_file):
        # a JSON string is iterable, but its characters are not a vector
        code, _ = run(capsys, "simple-check", str(ident_file), "--vector", '"1234"')
        assert code == 2

    def test_square_complete_string_corner_exit_2(self, tmp_path, capsys, ident_file):
        corners = tmp_path / "c.json"
        corners.write_text(json.dumps({"a": "1234", "b": [0, 1, 0, 0], "c": [0, 0, 1, 0]}))
        code, _ = run(capsys, "square-complete", str(ident_file), str(corners))
        assert code == 2

    @pytest.mark.parametrize("text", ["1e100000000", "1.5", " 1", True, 0.1])
    @pytest.mark.parametrize("where", ["instance", "base_point", "--vector", "--vector-file", "corners"])
    def test_scalar_not_p_or_p_over_q_exit_2(self, tmp_path, capsys, ident_file, where, text):
        # Fraction would accept a decimal exponent and spend minutes on 10**100000000
        vec = json.dumps([text, 0, 0, 0])
        args = ["simple-check", str(ident_file), "--vector", "[1, 0, 0, 0]"]
        if where in ("instance", "base_point"):
            payload = json.loads(ident_file.read_text())
            if where == "instance":
                payload["scramble"][0][0] = text
            else:
                payload["base_point"] = [text, "0", "0", "0"]
            ident_file.write_text(json.dumps(payload))
        elif where == "--vector":
            args[3] = vec
        elif where == "--vector-file":
            (tmp_path / "v.json").write_text(vec)
            args[2:4] = ["--vector-file", str(tmp_path / "v.json")]
        else:
            corners = tmp_path / "c.json"
            corners.write_text(json.dumps({"a": json.loads(vec), "b": [0, 1, 0, 0], "c": [0, 0, 1, 0]}))
            args = ["square-complete", str(ident_file), str(corners)]
        start = time.perf_counter()
        code, _ = run(capsys, *args)
        assert code == 2
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("where", ["recover", "corners", "--vector", "--vector-file"])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, ident_file, where):
        # the decoder gives up on this nesting with a RecursionError
        nested = "[" * 200000 + "]" * 200000
        path = tmp_path / "nested.json"
        path.write_text(nested)
        argv = {
            "recover": ["recover", str(path)],
            "corners": ["square-complete", str(ident_file), str(path)],
            "--vector": ["simple-check", str(ident_file), "--vector", nested],
            "--vector-file": ["simple-check", str(ident_file), "--vector-file", str(path)],
        }[where]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m", 2.9),
            ("m", True),
            ("n", 2.0),
            ("sampler_range", 1.5),
            ("sampler_range", True),
            ("seed", 1.5),
            ("seed", "1"),
            ("seed", False),
        ],
    )
    def test_integer_field_not_json_integer_exit_2(self, capsys, ident_file, field, value):
        payload = json.loads(ident_file.read_text())
        payload[field] = value
        ident_file.write_text(json.dumps(payload))
        code, _ = run(capsys, "simple-check", str(ident_file), "--vector", "[1, 0, 0, 0]")
        assert code == 2

    def test_square_complete(self, tmp_path, capsys, ident_file):
        corners = tmp_path / "corners.json"
        corners.write_text(json.dumps({"a": [1, 0, 0, 0], "b": [0, 1, 0, 0], "c": [0, 0, 1, 0]}))
        code, out = run(capsys, "square-complete", str(ident_file), str(corners))
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == ["0", "0", "0", "1"]
        assert payload["t"] == "1"
        assert payload["case"] == "generic"

    def test_square_complete_bad_corners(self, tmp_path, capsys, ident_file):
        corners = tmp_path / "c.json"
        corners.write_text(json.dumps({"a": [1, 0, 0, 0], "b": [0, 1, 0, 0]}))
        code, _ = run(capsys, "square-complete", str(ident_file), str(corners))
        assert code == 2

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_square_complete_wrong_length_corner_exit_2(self, tmp_path, capsys, ident_file, name):
        # simple-check exits 2 on a wrong-length vector, and so does a wrong-length corner
        corners = {"a": [1, 0, 0, 0], "b": [0, 1, 0, 0], "c": [0, 0, 1, 0]}
        corners[name] = corners[name][:3]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(corners))
        assert main(["square-complete", str(ident_file), str(path)]) == 2
        assert f"corner {name} length 3 does not match instance dimension 4" in capsys.readouterr().err

    def test_square_complete_zero_denominator_exit_2(self, tmp_path, capsys, ident_file):
        corners = tmp_path / "c.json"
        corners.write_text(json.dumps({"a": [1, 0, 0, 0], "b": [0, 1, 0, 0], "c": ["1/0", 0, 1, 0]}))
        code, _ = run(capsys, "square-complete", str(ident_file), str(corners))
        assert code == 2

    def test_square_complete_infinite_scalar_exit_2(self, tmp_path, capsys, ident_file):
        corners = tmp_path / "c.json"
        corners.write_text(json.dumps({"a": [1, 0, 0, 0], "b": [0, 1, 0, 0], "c": [float("-inf"), 0, 1, 0]}))
        code, _ = run(capsys, "square-complete", str(ident_file), str(corners))
        assert code == 2

    def test_square_complete_violation_exit_1(self, tmp_path, capsys, ident_file):
        corners = tmp_path / "c.json"
        corners.write_text(json.dumps({"a": [1, 0, 0, 0], "b": [0, 1, 0, 0], "c": [0, 1, 1, 0]}))
        code, _ = run(capsys, "square-complete", str(ident_file), str(corners))
        assert code == 1


class TestSpinDemo:
    def test_distinguishes_4x3_from_2x6(self, capsys):
        code, out = run(capsys, "spin-demo", "--dims", "4x3,2x6", "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert "cone dimension = 6" in lines[0]
        assert "cone dimension = 7" in lines[1]

    def test_small_square(self, capsys):
        code, out = run(capsys, "spin-demo", "--dims", "2x2")
        assert code == 0 and "cone dimension = 3" in out

    def test_trivial_shapes_noted(self, capsys):
        code, out = run(capsys, "spin-demo", "--dims", "1x12,12x1")
        assert code == 0
        assert out.count("cone dimension = 12") == 2
        assert out.count("trivial shape") == 2

    def test_parse_failure_exit_2(self, capsys):
        code, _ = run(capsys, "spin-demo", "--dims", "4by3")
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, out_a = run(capsys, "spin-demo", "--dims", "3x3,2x2", "--seed", "8")
        _, out_b = run(capsys, "spin-demo", "--dims", "3x3,2x2", "--seed", "8")
        assert out_a == out_b


class TestProps:
    def test_lemmas_pass(self, capsys):
        code, out = run(capsys, "props", "--suite", "lemmas", "--trials", "10", "--seed", "3")
        assert code == 0
        assert "FAIL" not in out and "PASS" in out

    def test_injected_fault_detected(self, capsys):
        code, out = run(capsys, "props", "--suite", "lemmas", "--trials", "3", "--seed", "3", "--inject-fault")
        assert code == 1
        assert "FAIL" in out and "counterexample" in out

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "props", "--suite", "lemmas", "--trials", "5", "--seed", "11")
        _, b = run(capsys, "props", "--suite", "lemmas", "--trials", "5", "--seed", "11")
        assert a == b

    def test_zero_trials_rejected(self, capsys):
        code, _ = run(capsys, "props", "--suite", "lemmas", "--trials", "0")
        assert code == 2


class TestNaturality:
    def test_summary_schema(self, capsys):
        code, out = run(capsys, "naturality", "--trials", "2", "--seed", "6")
        assert code == 0
        summary = json.loads(out)
        assert set(summary) == {"trials", "psi_pass", "phi_pass", "functor_law_pass"}
        assert summary["psi_pass"] and summary["phi_pass"] and summary["functor_law_pass"]


# -- fuzzed input files ---------------------------------------------------------

_TEMPLATE = {
    "m": 2,
    "n": 2,
    "seed": 7,
    "scramble": [["1", "1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "2", "1"], ["1", "0", "0", "1"]],
    "base_point": ["2", "1", "6", "3"],
}
# The images of e1 x e1, e1 x e2 and e2 x e1 under the template's scramble.
_CORNERS = {"a": ["1", "0", "0", "1"], "b": ["1", "1", "0", "0"], "c": ["0", "0", "2", "0"]}

_scalars = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.integers(),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(-3, 30)),
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e300]),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_vectors = st.one_of(st.lists(_scalars, min_size=4, max_size=4), st.lists(_scalars, max_size=6), _json)
_matrices = st.one_of(st.lists(st.lists(_scalars, min_size=4, max_size=4), min_size=4, max_size=4), st.lists(_vectors, max_size=5))


@st.composite
def _instance_texts(draw):
    """Instance files: the template as it is, with some fields replaced or
    dropped, or no instance at all."""
    kind = draw(st.sampled_from(["template", "mutated", "mutated", "json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "json":
        return json.dumps(draw(_json))
    payload = dict(_TEMPLATE)
    if kind == "template":
        return json.dumps(payload)
    fields = {
        "m": st.one_of(_scalars, st.integers(1, 5)),
        "n": st.one_of(_scalars, st.integers(1, 5)),
        "seed": _json,
        "scramble": _matrices,
        "base_point": _vectors,
        "sampler_range": st.one_of(_scalars, st.integers(-2, 12)),
    }
    for key in draw(st.sets(st.sampled_from(sorted(fields)), max_size=3)):
        if draw(st.booleans()):
            payload[key] = draw(fields[key])
        else:
            payload.pop(key, None)
    return json.dumps(payload)


@st.composite
def _corner_texts(draw):
    if draw(st.booleans()):
        return json.dumps(draw(_json))
    corners = dict(_CORNERS)
    for key in draw(st.sets(st.sampled_from("abc"))):
        corners[key] = draw(_vectors)
    return json.dumps(corners)


def test_fuzz_templates_are_valid(tmp_path, capsys):
    inst, corners = tmp_path / "i.json", tmp_path / "c.json"
    inst.write_text(json.dumps(_TEMPLATE))
    corners.write_text(json.dumps(_CORNERS))
    code, out = run(capsys, "square-complete", str(inst), str(corners))
    assert code == 0 and json.loads(out)["d"] == ["0", "0", "1", "1"]
    code, out = run(capsys, "recover", str(inst), "--seed", "1")
    assert code == 0 and json.loads(out)["success"] is True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    instance=_instance_texts(),
    command=st.sampled_from(["recover", "simple-check --vector", "simple-check --vector-file", "square-complete"]),
    vector_text=st.one_of(_vectors.map(json.dumps), st.text(max_size=20)),
    corners_text=_corner_texts(),
)
def test_fuzzed_files_exit_with_a_documented_code(instance, command, vector_text, corners_text):
    """Whatever the input files hold, the CLI returns 0-3 and never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "instance.json")
        with open(inst_path, "w", encoding="utf-8") as fh:
            fh.write(instance)
        argv = [command.split()[0], inst_path]
        if command == "simple-check --vector":
            argv.append("--vector=" + vector_text)
        elif command == "simple-check --vector-file":
            argv += ["--vector-file", os.path.join(tmp, "vector.json")]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(vector_text)
        elif command == "square-complete":
            argv.append(os.path.join(tmp, "corners.json"))
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(corners_text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)
