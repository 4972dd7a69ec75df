import json

import pytest

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

    def test_retry_exhausted_exit_3(self, capsys, monkeypatch, instance_file):
        import untensor.cli as cli_mod
        from untensor.errors import RetryExhausted

        def exhausted(*args, **kwargs):
            raise RetryExhausted("sampling budget spent")

        monkeypatch.setattr(cli_mod, "recover_factors", exhausted)
        code, _ = run(capsys, "recover", str(instance_file))
        assert code == 3


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

    def test_square_complete_zero_denominator_exit_2(self, tmp_path, capsys, ident_file):
        corners = tmp_path / "c.json"
        corners.write_text(json.dumps({"a": [1, 0, 0, 0], "b": [0, 1, 0, 0], "c": ["1/0", 0, 1, 0]}))
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
