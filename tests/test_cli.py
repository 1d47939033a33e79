import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shellqm
import shellqm.experiments
import shellqm.rng
import shellqm.scenario
from shellqm.cli import COMMANDS, MAX_SAMPLES, main
from shellqm.core import TOL_HERM, TOL_SHELL
from shellqm.errors import ScenarioParseError, ScenarioValidationError
from shellqm.experiments import MAX_TRIALS, random_hermitian, random_state
from shellqm.rng import master_rng
from shellqm.scenario import parse_scenario

REPO = Path(__file__).resolve().parents[1]
EQUAL_Q2 = REPO / "scenarios" / "equal_q2.json"
GOLDEN = REPO / "scenarios" / "golden"

MINIMAL = {
    "dimension": 2,
    "hbar": 1.0,
    "observable": {"re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]},
    "state": {"re": [1, 1], "im": [0, 0]},
    "normalize": True,
    "seed": 7,
    "trials": 1000,
}


def scenario_text(**overrides) -> str:
    doc = {**MINIMAL, **overrides}
    return json.dumps(doc)


class TestParseScenario:
    def test_minimal_equal_weight(self):
        scenario = parse_scenario(scenario_text())
        assert scenario.dimension == 2
        state = scenario.state()
        from shellqm import born_probabilities

        dist = born_probabilities(scenario.observable(), state)
        assert np.allclose(dist.probabilities, [0.5, 0.5], atol=1e-12)

    def test_defaults(self):
        doc = dict(MINIMAL)
        for key in ("hbar", "seed", "trials"):
            doc.pop(key)
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.hbar == 1.0 and scenario.mass == 1.0 and scenario.omega == 1.0
        assert scenario.seed == 0 and scenario.trials == 10000

    def test_symmetric_imaginary_part_rejected(self):
        text = scenario_text(observable={"re": [[1, 0], [0, 2]], "im": [[0, 1], [1, 0]]})
        with pytest.raises(ScenarioValidationError):
            parse_scenario(text)

    def test_empty_document(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario(b"")

    def test_malformed_json_reports_line(self):
        with pytest.raises(ScenarioParseError, match="line"):
            parse_scenario('{"dimension": 2,\n  broken')

    def test_missing_field(self):
        doc = dict(MINIMAL)
        doc.pop("observable")
        with pytest.raises(ScenarioParseError, match="observable"):
            parse_scenario(json.dumps(doc))

    def test_wrong_shape(self):
        with pytest.raises(ScenarioParseError, match="shape"):
            parse_scenario(scenario_text(state={"re": [1, 1, 1], "im": [0, 0, 0]}))

    def test_off_shell_without_normalize(self):
        with pytest.raises(ScenarioValidationError, match="normalize"):
            parse_scenario(scenario_text(normalize=False))

    def test_on_shell_without_normalize(self):
        r = float(np.sqrt(0.5))
        scenario = parse_scenario(
            scenario_text(normalize=False, state={"re": [r, r], "im": [0, 0]})
        )
        assert scenario.state().norm_squared() == pytest.approx(1.0)

    @pytest.mark.parametrize("patch", [
        {"dimension": 0},
        {"hbar": 0.0},
        {"hbar": -2.0},
        {"trials": 0},
    ])
    def test_nonpositive_values_rejected(self, patch):
        doc = {**MINIMAL, **patch}
        if patch.get("dimension") == 0:
            doc["observable"] = {"re": [], "im": []}
            doc["state"] = {"re": [], "im": []}
        with pytest.raises(ScenarioValidationError):
            parse_scenario(json.dumps(doc))

    def test_non_finite_rejected(self):
        with pytest.raises(ScenarioParseError, match="finite"):
            parse_scenario(scenario_text(state={"re": [1, float("nan")], "im": [0, 0]}))

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ScenarioParseError, match="tolerance"):
            parse_scenario(scenario_text(tolerances={"bogus": 1e-3}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_non_finite_or_nonpositive_tolerance_rejected(self, value):
        with pytest.raises(ScenarioParseError, match="positive finite"):
            parse_scenario(scenario_text(tolerances={"shell": value}))

    def test_overrides_replace_document_tolerances(self):
        text = scenario_text(tolerances={"shell": 1e-8, "herm": 1e-9})
        scenario = parse_scenario(text, overrides={"tolerances": {"shell": 1e-3}})
        assert dict(scenario.tolerances) == {"shell": 1e-3, "herm": 1e-9}

    @pytest.mark.parametrize("overrides, message", [
        ({"tolerances": 5}, "field 'tolerances' must be an object, got 5"),
        ({"tolerances": [("shell", 1e-3)]}, "field 'tolerances' must be an object"),
        ({"bogus": 1}, "unknown field 'bogus'"),
        ({"observable_re": [[1, 0], [0, 2]]}, "unknown field 'observable_re'"),
        ({"observable": 1}, "field 'observable' must be an object, got 1"),
        ({"state": {"re": [1, 1]}}, "field 'state' needs 'im' array"),
    ], ids=["tolerances-int", "tolerances-pairs", "unknown", "scenario-only-name",
            "observable-int", "state-without-im"])
    def test_overrides_refused_as_document_fields_are(self, overrides, message):
        # an override replaces a document field before the document is read,
        # so a malformed one is refused as the same field in the document is
        with pytest.raises(ScenarioParseError, match=re.escape(message)):
            parse_scenario(scenario_text(), overrides=overrides)

    def test_overrides_replace_whole_document_objects(self):
        scenario = parse_scenario(scenario_text(), overrides={
            "observable": {"re": [[3, 0], [0, 4]], "im": [[0, 0], [0, 0]]}, "trials": 5})
        assert scenario.observable_re.tolist() == [[3.0, 0.0], [0.0, 4.0]]
        assert scenario.trials == 5

    @pytest.mark.parametrize("edit, message", [
        ({"trails": 100}, "unknown field 'trails'"),
        ({"tolerance": {"shell": 1e-3}}, "unknown field 'tolerance'"),
        ({"_comment": "equal weights"}, "unknown field '_comment'"),
        ({"observable": {**MINIMAL["observable"], "imag": [[0, 0], [0, 0]]}},
         "unknown field 'observable.imag'"),
        ({"state": {**MINIMAL["state"], "imag": [0, 0]}}, "unknown field 'state.imag'"),
    ], ids=["top-level-typo", "tolerance", "comment", "observable-part", "state-part"])
    def test_unknown_document_fields_rejected(self, edit, message):
        # a misspelled field would otherwise be dropped and its default used
        with pytest.raises(ScenarioParseError, match=re.escape(message)):
            parse_scenario(scenario_text(**edit))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_misspelled_tolerances_exit_2(self, tmp_path, command):
        path = tmp_path / "scenario.json"
        path.write_text(scenario_text(tolerance={"shell": 1e-3}))
        code, out, err = run_main([command, "--scenario", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "ScenarioParseError",
                                            "message": "unknown field 'tolerance'"}

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**400], ids=["cap+1", "1e400"])
    def test_trials_above_cap_rejected(self, trials):
        with pytest.raises(ScenarioValidationError, match="trials"):
            parse_scenario(scenario_text(trials=trials))

    def test_observable_is_exact_hermitian_part(self):
        m = np.array([[1, 1e-7 + 2e-8j], [3e-8, 2]])
        scenario = parse_scenario(
            scenario_text(observable={"re": m.real.tolist(), "im": m.imag.tolist()}),
            overrides={"tolerances": {"herm": 1e-6}},
        )
        matrix = scenario.observable().matrix
        assert np.array_equal(matrix, matrix.conj().T)
        assert np.array_equal(matrix, (m + m.conj().T) / 2)

    def test_hermitian_observable_kept_bit_for_bit(self):
        # a signed zero and a subnormal survive, which halving each entry would not
        m = np.array([[-0.0, 5e-324 - 0.25j], [5e-324 + 0.25j, 1.0]])
        scenario = parse_scenario(
            scenario_text(observable={"re": m.real.tolist(), "im": m.imag.tolist()})
        )
        built = scenario.observable_re + 1j * scenario.observable_im
        assert scenario.observable().matrix.tobytes() == built.tobytes()

    def test_loose_state_reaches_the_core_on_shell(self):
        r = float(np.sqrt(0.5))
        doc = scenario_text(normalize=False, state={"re": [r + 1e-6, r], "im": [0, 0]})
        state = parse_scenario(doc, overrides={"tolerances": {"shell": 1e-3}}).state()
        assert abs(state.norm_squared() - 1.0) <= 1e-15

    def test_parse_keeps_the_instances_it_admits(self):
        scenario = parse_scenario(scenario_text())
        assert scenario.observable() is scenario.observable()
        assert scenario.state() is scenario.state()

    def test_direct_scenario_admits_when_built(self):
        parsed = parse_scenario(scenario_text())
        direct = dataclasses.replace(parsed)
        assert direct.observable() is not parsed.observable()
        assert direct.observable() is direct.observable()
        assert direct.state() is direct.state()
        assert np.array_equal(direct.observable().matrix, parsed.observable().matrix)
        assert np.array_equal(direct.state().components, parsed.state().components)

    def test_direct_off_shell_state_refused_when_built(self):
        parsed = parse_scenario(scenario_text())
        message = "state is off shell (residual 1); set normalize=true to rescale"
        with pytest.raises(ScenarioValidationError, match=f"^{re.escape(message)}$"):
            parse_scenario(scenario_text(normalize=False))
        with pytest.raises(ScenarioValidationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(parsed, normalize=False, state_re=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("edit", [
        {"dimension": 3}, {"mass": -1.0}, {"omega": float("nan")}, {"trials": 0},
        {"tolerances": {"bogus": 1.0}}, {"tolerances": {"herm": -1.0}},
        {"trials": 2.5}, {"seed": 1.5}, {"normalize": "no"}, {"trials": True},
        {"tolerances": 5}, {"hbar": True}, {"normalize": False},
        {"observable_re": [[1, 1], [0, 2]]}, {"state_re": [0, 0]},
    ], ids=["dimension", "mass", "omega", "trials", "tolerance-name", "tolerance-value",
            "trials-float", "seed-float", "normalize-string", "trials-bool", "tolerances-number",
            "hbar-bool", "off-shell", "non-hermitian", "zero-state"])
    def test_replace_refused_as_parse_refuses(self, edit):
        # an array edit `<field>_<part>` replaces that part of the document's field
        scenario = parse_scenario(EQUAL_Q2.read_text())
        doc = scenario.to_dict()
        for key, value in edit.items():
            name, _, part = key.partition("_")
            doc[name] = {**doc[name], part: value} if part else value
        with pytest.raises((ScenarioParseError, ScenarioValidationError)) as parsed:
            parse_scenario(json.dumps(doc))
        with pytest.raises(parsed.type, match=f"^{re.escape(str(parsed.value))}$"):
            dataclasses.replace(scenario, **edit)

    @pytest.mark.parametrize("edit, message", [
        ({"seed": np.int64(3)}, "field 'seed' must be an integer, got np.int64(3)"),
        ({"hbar": np.float32(1.0)}, "field 'hbar' must be a number, got np.float32(1.0)"),
        ({"normalize": np.True_}, "field 'normalize' must be a boolean, got np.True_"),
    ], ids=["int64", "float32", "bool_"])
    def test_replace_refuses_a_type_json_has_not(self, edit, message):
        # JSON yields int, float and bool, so no document holds these values
        scenario = parse_scenario(EQUAL_Q2.read_text())
        with pytest.raises(ScenarioParseError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(scenario, **edit)

    def test_tolerances_cannot_change_after_admission(self):
        scenario = parse_scenario(scenario_text(tolerances={"herm": 1e-9}))
        with pytest.raises(TypeError):
            scenario.tolerances["herm"] = 1e-3
        assert scenario.to_dict()["tolerances"] == {"herm": 1e-9}

    def test_round_trip_identity(self):
        scenario = parse_scenario(scenario_text(tolerances={"shell": 1e-8}))
        again = parse_scenario(json.dumps(scenario.to_dict()))
        assert again.to_dict() == scenario.to_dict()
        assert np.array_equal(again.observable_re, scenario.observable_re)
        assert np.array_equal(again.state_im, scenario.state_im)


class TestDispatch:
    def run(self, tmp_path, *argv):
        return main(list(argv)), tmp_path

    def write_scenario(self, tmp_path, **overrides) -> str:
        path = tmp_path / "scenario.json"
        path.write_text(scenario_text(**overrides))
        return str(path)

    def read_csv(self, path: Path):
        header = None
        rows = []
        meta = {}
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
        return meta, header, rows

    def test_probs_emits_half_half(self, tmp_path):
        scen = self.write_scenario(tmp_path)
        code, _ = self.run(tmp_path, "probs", "--scenario", scen, "--out", str(tmp_path))
        assert code == 0
        meta, header, rows = self.read_csv(tmp_path / "probs.csv")
        assert header == ["outcome", "probability"]
        assert [float(r[1]) for r in rows] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert meta["rng"] == "philox4x64-10"
        assert meta["seed"] == "7"

    def test_spectrum_identity_single_cluster(self, tmp_path):
        scen = self.write_scenario(
            tmp_path,
            observable={"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
        )
        code, _ = self.run(tmp_path, "spectrum", "--scenario", scen, "--out", str(tmp_path))
        assert code == 0
        _, header, rows = self.read_csv(tmp_path / "spectrum.csv")
        assert header == ["level", "eigenvalue", "cluster"]
        assert [float(r[1]) for r in rows] == [1.0, 1.0]
        assert [r[2] for r in rows] == ["0", "0"]

    def test_mean_difference_is_tiny(self, tmp_path):
        scen = self.write_scenario(tmp_path)
        code, _ = self.run(tmp_path, "mean", "--scenario", scen, "--out", str(tmp_path))
        assert code == 0
        _, header, rows = self.read_csv(tmp_path / "mean.csv")
        assert float(rows[0][0]) == pytest.approx(1.5, abs=1e-10)
        assert abs(float(rows[0][2])) <= 1e-10

    def test_evolve_preserves_norm(self, tmp_path):
        scen = self.write_scenario(tmp_path)
        code, _ = self.run(
            tmp_path, "evolve", "--scenario", scen, "--out", str(tmp_path),
            "--samples", "10", "--time", "3.0",
        )
        assert code == 0
        _, header, rows = self.read_csv(tmp_path / "evolve.csv")
        assert header[0] == "t" and header[-1] == "norm_residual"
        assert len(rows) == 11
        assert all(abs(float(r[-1])) <= 1e-10 for r in rows)

    def test_sample_counts_sum_to_trials(self, tmp_path):
        scen = self.write_scenario(tmp_path)
        code, _ = self.run(
            tmp_path, "sample", "--scenario", scen, "--out", str(tmp_path), "--trials", "2000"
        )
        assert code == 0
        _, _, rows = self.read_csv(tmp_path / "sample.csv")
        assert sum(int(r[1]) for r in rows) == 2000

    def test_verify_passes_and_exits_zero(self, tmp_path):
        scen = self.write_scenario(tmp_path, trials=20000)
        code, _ = self.run(tmp_path, "verify", "--scenario", scen, "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["passed"] is True
        names = [r["name"] for r in doc["reports"]]
        assert names == ["mean-proportionality", "chi-square", "courant-fischer", "norm-conservation"]
        assert doc["meta"]["rng"] == "philox4x64-10"

    def test_verify_fails_the_norm_report_on_a_drifting_flow(self, tmp_path, monkeypatch):
        # the report's propagator scaled by 1 + 5e-9 moves the norm by 1e-8 hbar, past
        # flow's TOL_SHELL and the report's TOL_NORM_DRIFT: the report fails, verify does not error
        exact = shellqm.experiments.unitary_propagator
        monkeypatch.setattr(shellqm.experiments, "unitary_propagator",
                            lambda a, t: exact(a, t) * (1 + 5e-9))
        code, _ = self.run(tmp_path, "verify", "--scenario", str(EQUAL_Q2), "--out", str(tmp_path))
        assert code == 1
        reports = json.loads((tmp_path / "verify.json").read_text())["reports"]
        assert [r["name"] for r in reports if not r["passed"]] == ["norm-conservation"]
        assert reports[-1]["statistic"] == pytest.approx(1e-8, rel=1e-6)

    def test_verify_byte_identical_reruns(self, tmp_path):
        scen = self.write_scenario(tmp_path, trials=5000)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--scenario", scen, "--out", str(out1)]) == 0
        assert main(["verify", "--scenario", scen, "--out", str(out2)]) == 0
        assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()

    def test_structured_format(self, tmp_path):
        scen = self.write_scenario(tmp_path)
        code, _ = self.run(
            tmp_path, "probs", "--scenario", scen, "--out", str(tmp_path),
            "--format", "structured",
        )
        assert code == 0
        doc = json.loads((tmp_path / "probs.json").read_text())
        assert doc["probabilities"] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_seed_and_trials_overrides(self, tmp_path):
        scen = self.write_scenario(tmp_path)
        code, _ = self.run(
            tmp_path, "sample", "--scenario", scen, "--out", str(tmp_path),
            "--seed", "123", "--trials", "50",
        )
        assert code == 0
        meta, _, rows = self.read_csv(tmp_path / "sample.csv")
        assert meta["seed"] == "123"
        assert sum(int(r[1]) for r in rows) == 50

    @pytest.mark.parametrize("trials", [0, MAX_TRIALS + 1, 10**400], ids=["0", "cap+1", "1e400"])
    def test_trials_refused_alike_from_flag_and_document(self, tmp_path, trials):
        flag = self.write_scenario(tmp_path)
        document = tmp_path / "document.json"
        document.write_text(scenario_text(trials=trials))
        for command in COMMANDS:
            code, _, err = run_main([command, "--scenario", flag, "--trials", str(trials)])
            assert code == 2 and err.count("\n") == 1
            assert run_main([command, "--scenario", str(document)]) == (code, "", err)

    @pytest.mark.parametrize("field, value, option", [
        ("trials", 0, ["--trials", "100"]),
        ("seed", 1.5, ["--seed", "3"]),
        ("tolerances", {"shell": -1}, ["--tol", "shell=1e-3"]),
    ], ids=["trials", "seed", "tolerance"])
    def test_flag_rescues_the_document_field_it_replaces(self, tmp_path, field, value, option):
        scen = self.write_scenario(tmp_path, **{field: value})
        assert run_main(["probs", "--scenario", scen])[0] == 2
        for command in COMMANDS:
            code, _, err = run_main([command, "--scenario", scen, *option])
            assert (code, err) == (0, "")

    def test_input_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["probs", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        diag = json.loads(err)
        assert diag["error"]["type"] == "ScenarioParseError"

    @pytest.mark.parametrize("argv", [
        ["sample", "--scenario", str(EQUAL_Q2), "--seed", "junk"],
        ["bogus", "--scenario", str(EQUAL_Q2)],
        ["probs"],
        ["probs", "--scenario", str(EQUAL_Q2), "--unknown"],
    ])
    def test_usage_error_is_one_json_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        diag = json.loads(captured.err)
        assert diag["error"]["type"] == "ArgumentError"

    @pytest.mark.parametrize("text, extra, kind, message", [
        (scenario_text(), ["--tol", "shell"], "ArgumentError", "--tol expects NAME=VALUE"),
        (scenario_text(), ["--tol", "shell=1e-3", "--tol", "shell=1e-12"], "ArgumentError",
         "--tol shell is given more than once"),
        (scenario_text(tolerances=5), [], "ScenarioParseError", "must be an object"),
        (scenario_text(observable={"im": [[0, 0], [0, 0]]}), [], "ScenarioParseError",
         "needs 're' array"),
        ("[1, 2]", [], "ScenarioParseError", "must be a JSON object"),
        ("[" * 100000 + "]" * 100000, [], "ScenarioParseError", "invalid JSON: nested too deeply"),
        (scenario_text(normalize=1), [], "ScenarioParseError", "must be a boolean"),
    ], ids=["tol-without-value", "tol-repeated", "tolerances-not-object", "observable-without-re",
            "document-not-object", "nested-too-deeply", "normalize-not-boolean"])
    def test_input_error_is_one_json_line(self, tmp_path, capsys, text, extra, kind, message):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["probs", "--scenario", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        diag = json.loads(line)["error"]
        assert diag["type"] == kind
        assert message in diag["message"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: shellqm" in capsys.readouterr().out

    @pytest.mark.parametrize("hbar", [1e-30, 1e30])
    def test_verify_passes_on_any_shell(self, tmp_path, hbar):
        doc = json.loads(EQUAL_Q2.read_text())
        doc["hbar"] = hbar
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "verify.json").read_text())["passed"]

    def test_verify_above_the_embedded_chi_square_table_is_strict_json(self, tmp_path, capsys):
        # 40 outcomes pool to more than 32 degrees of freedom
        rng = master_rng(40)
        m, psi = random_hermitian(40, rng).matrix, random_state(40, rng).components
        path = self.write_scenario(tmp_path, dimension=40, normalize=False, trials=100000,
                                   observable={"re": m.real.tolist(), "im": m.imag.tolist()},
                                   state={"re": psi.real.tolist(), "im": psi.imag.tolist()})
        assert main(["verify", "--scenario", path]) == 0

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert out["passed"] is True
        assert [r["passed"] for r in out["reports"]] == [True] * 4

    def test_verify_on_a_huge_spectrum_is_finite_and_quiet(self, tmp_path, capsys):
        # the squared spread of +-1e153 outcomes overflows unless scaled first
        doc = json.loads(EQUAL_Q2.read_text())
        doc["observable"] = {"re": [[1e153, 0], [0, -1e153]], "im": [[0, 0], [0, 0]]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--scenario", str(path), "--trials", "10000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        [mean] = [r for r in json.loads(captured.out)["reports"]
                  if r["name"] == "mean-proportionality"]
        assert np.isfinite(mean["threshold"])

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["probs", "--scenario", str(tmp_path / "nope.json")]) == 2

    def test_validation_error_exit_code(self, tmp_path):
        scen = self.write_scenario(tmp_path, normalize=False)
        assert main(["probs", "--scenario", scen]) == 2

    def test_tol_override_allows_loose_shell(self, tmp_path):
        # slightly off-shell state passes once the shell tolerance is widened
        r = float(np.sqrt(0.5)) + 1e-6
        scen = self.write_scenario(
            tmp_path, normalize=False, state={"re": [r, float(np.sqrt(0.5))], "im": [0, 0]}
        )
        assert main(["probs", "--scenario", scen, "--out", str(tmp_path)]) == 2
        for command in COMMANDS:
            assert main([
                command, "--scenario", scen, "--out", str(tmp_path), "--tol", "shell=1e-3",
            ]) == 0, command

    def test_tol_override_allows_loose_herm(self, tmp_path):
        scen = self.write_scenario(
            tmp_path, observable={"re": [[1, 1e-9], [0, 2]], "im": [[0, 0], [0, 0]]}
        )
        assert main(["probs", "--scenario", scen, "--out", str(tmp_path)]) == 2
        for command in COMMANDS:
            assert main([
                command, "--scenario", scen, "--out", str(tmp_path), "--tol", "herm=1e-6",
            ]) == 0, command
        _, _, rows = self.read_csv(tmp_path / "probs.csv")
        assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_loose_shell_state_is_projected_before_use(self, tmp_path, capsys):
        # admitted at shell=1e-3 but off the shell by 1.2e-4: the core sees
        # the projected state, so probabilities sum to 1 and flow accepts it
        scen = self.write_scenario(
            tmp_path, normalize=False, state={"re": [0.7072, 0.7071], "im": [0, 0]}
        )
        for command in ("probs", "evolve", "verify"):
            assert main([command, "--scenario", scen, "--out", str(tmp_path),
                         "--tol", "shell=1e-3"]) == 0, command
        assert capsys.readouterr().err == ""
        _, _, rows = self.read_csv(tmp_path / "probs.csv")
        assert abs(sum(float(r[1]) for r in rows) - 1.0) <= 1e-12

    def test_loose_herm_observable_is_symmetrised_before_use(self, tmp_path, capsys):
        # admitted at herm=1e-6; its anti-Hermitian part would leave an
        # imaginary residue of 3.3e-8 in the observable's value at this state
        scen = self.write_scenario(
            tmp_path, observable={"re": [[1, 1e-7], [0, 2]], "im": [[0, 0], [0, 0]]},
            state={"re": [1, 1], "im": [0, 1]},
        )
        for command in ("mean", "verify"):
            assert main([command, "--scenario", scen, "--out", str(tmp_path),
                         "--tol", "herm=1e-6"]) == 0, command
        assert capsys.readouterr().err == ""
        _, _, rows = self.read_csv(tmp_path / "mean.csv")
        assert abs(float(rows[0][2])) <= 1e-12

    @pytest.mark.parametrize("command", ["probs", "sample"])
    def test_zero_state_under_loose_shell_exits_2(self, tmp_path, capsys, command):
        scen = self.write_scenario(
            tmp_path, normalize=False, state={"re": [0, 0], "im": [0, 0]}
        )
        assert main([command, "--scenario", scen, "--out", str(tmp_path),
                     "--tol", "shell=1e300"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "zero vector" in json.loads(lines[0])["error"]["message"]
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_scenario_admitted_once_per_command(self, tmp_path, monkeypatch, command):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append((name, *args[1:]))
                return fn(*args)
            return wrapper

        for name in ("hermitian_part", "project_to_shell"):
            monkeypatch.setattr(shellqm.scenario, name,
                                counted(name, getattr(shellqm.scenario, name)))
        scen = self.write_scenario(tmp_path)
        assert main([command, "--scenario", scen, "--out", str(tmp_path)]) == 0
        # one admission of the observable at `herm`, and one projection
        assert calls == [("hermitian_part", TOL_HERM), ("project_to_shell", 1.0)]

    @pytest.mark.parametrize("normalize", [True, False])
    def test_state_on_a_tiny_shell_is_admitted(self, tmp_path, normalize):
        scen = self.write_scenario(
            tmp_path, hbar=1e-30, normalize=normalize, state={"re": [1e-15, 0], "im": [0, 0]}
        )
        assert main(["probs", "--scenario", scen, "--out", str(tmp_path)]) == 0
        _, _, rows = self.read_csv(tmp_path / "probs.csv")
        assert [float(r[1]) for r in rows] == [1.0, 0.0]

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**400], ids=["cap+1", "1e400"])
    def test_trials_above_cap_exit_2_without_drawing(self, tmp_path, capsys, monkeypatch,
                                                      trials):
        def refuse(seed, n):
            raise AssertionError("no trial may be drawn")

        monkeypatch.setattr(shellqm.rng, "trial_chunks", refuse)
        monkeypatch.setattr(shellqm.experiments, "trial_chunks", refuse)
        scen = self.write_scenario(tmp_path)
        for command in ("sample", "verify"):
            assert main([command, "--scenario", scen, "--trials", str(trials)]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"]["type"] == "ScenarioValidationError"
        scen = self.write_scenario(tmp_path, trials=trials)
        assert main(["sample", "--scenario", scen]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("normalize", [True, False])
    def test_overflowing_state_norm_exits_2(self, tmp_path, capsys, normalize):
        scen = self.write_scenario(
            tmp_path, normalize=normalize, state={"re": [1e300, 1], "im": [0, 0]}
        )
        assert main(["probs", "--scenario", scen, "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "overflows" in json.loads(lines[0])["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["sample", "--trials", "0"],
        ["verify", "--trials", "50"],
        ["evolve", "--samples", "-1"],
        ["evolve", "--samples", "0"],
        ["evolve", "--time", "nan"],
        ["evolve", "--time", "inf"],
        ["probs", "--tol", "shell=nan"],
        ["probs", "--tol", "shell=inf"],
        ["probs", "--tol", "zero=1e-12"],
    ])
    def test_out_of_range_arguments_exit_2(self, tmp_path, capsys, argv):
        scen = self.write_scenario(tmp_path)
        assert main(argv + ["--scenario", scen, "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])["error"]) == {"type", "message"}
        assert list(tmp_path.glob("*.csv")) == [] and list(tmp_path.glob("verify.json")) == []

    @pytest.mark.parametrize("time", ["1e308", "-1e308"])
    @pytest.mark.filterwarnings("error")
    def test_evolve_time_overflowing_the_spectrum_exits_2(self, tmp_path, capsys, time):
        # equal_q2's eigenvalues 1 and 2 put 2 * 1e308 beyond the double range
        assert main(["evolve", "--scenario", str(EQUAL_Q2), f"--time={time}",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "InvalidArgumentError"
        assert list(tmp_path.glob("*.csv")) == []

    def test_verify_with_too_few_scenario_trials_exits_2(self, tmp_path, capsys):
        scen = self.write_scenario(tmp_path, trials=50)
        assert main(["verify", "--scenario", scen]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"]["type"] == "InvalidArgumentError"

    @pytest.mark.parametrize("command, big", [
        pytest.param(command, [[1e154, 1e154], [1e154, 2e154]], id=command)
        for command in ("spectrum", "probs", "mean")
    ] + [pytest.param("probs", [[0, 1e308], [1e308, 0]], id="probs-1e308")])
    def test_overflowing_matrix_norm_exits_2(self, tmp_path, capsys, command, big):
        # [[1,1],[1,2]] * 1e154 has finite entries but an infinite Frobenius
        # norm, which would stop the Jacobi sweep before any rotation; near
        # 1e308 the scenario's symmetrisation itself must not overflow
        big = {"re": big, "im": [[0, 0], [0, 0]]}
        scen = self.write_scenario(tmp_path, observable=big)
        assert main([command, "--scenario", scen, "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "overflows" in json.loads(lines[0])["error"]["message"]
        assert list(tmp_path.glob("*.csv")) == []

    def test_large_finite_matrix_norm_is_solved(self, tmp_path):
        big = {"re": [[1e150, 1e150], [1e150, 2e150]], "im": [[0, 0], [0, 0]]}
        scen = self.write_scenario(tmp_path, observable=big)
        assert main(["spectrum", "--scenario", scen, "--out", str(tmp_path)]) == 0
        _, _, rows = self.read_csv(tmp_path / "spectrum.csv")
        golden = (1.5 + np.array([-1, 1]) * np.sqrt(5) / 2) * 1e150
        assert np.allclose([float(r[1]) for r in rows], golden, rtol=1e-12)

    @pytest.mark.parametrize("command", ["mean", "verify"])
    def test_value_near_zero_of_a_wide_spectrum_exits_0(self, tmp_path, command):
        # outcomes +-4.4e11 and a mean near 0: the form's computed imaginary
        # part, about 1e-5, is rounding of the size eps * ||A||, not an error
        wide = {"re": [[105438515737.25232, 420914237689.9385],
                       [420914237689.9385, -105438515737.25226]],
                "im": [[0.0, -77391413239.87003], [77391413239.87003, 0.0]]}
        state = {"re": [-1.3773528080208324, 0.1621371839109152],
                 "im": [0.21531622711820916, 0.17392440360727307]}
        scen = self.write_scenario(tmp_path, observable=wide, state=state, seed=1, trials=10000)
        assert main([command, "--scenario", scen, "--out", str(tmp_path)]) == 0

    def test_small_level_of_a_wide_spectrum_verifies(self, tmp_path):
        # 0 and 1 are distinct outcomes of diag(0, 1, 1e8): the eigenstate of
        # 0 has mean 0 and a single outcome 0, not a merged outcome 0.5
        diag = {"re": [[0, 0, 0], [0, 1, 0], [0, 0, 1e8]], "im": [[0] * 3] * 3}
        state = {"re": [1, 0, 0], "im": [0, 0, 0]}
        scen = self.write_scenario(tmp_path, dimension=3, observable=diag, state=state)
        assert main(["probs", "--scenario", scen, "--out", str(tmp_path)]) == 0
        _, _, rows = self.read_csv(tmp_path / "probs.csv")
        assert [(float(r[0]), float(r[1])) for r in rows] == [(0.0, 1.0), (1.0, 0.0), (1e8, 0.0)]
        assert main(["verify", "--scenario", scen, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("text", [
        scenario_text(hbar=10**400),
        scenario_text(state={"re": [10**400, 1], "im": [0, 0]}),
        scenario_text(tolerances={"herm": 10**400}),
        '{"dimension": ' + "1" * 5000 + "}",
        b"\xff\xfe not utf-8",
    ], ids=["huge-hbar", "huge-entry", "huge-tolerance", "long-integer-literal", "bad-utf8"])
    def test_unrepresentable_input_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["probs", "--scenario", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ScenarioParseError"

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("target", ["existing-file", "under-a-file"])
    def test_write_failure_exits_2(self, tmp_path, capsys, command, target):
        # a failed write is an input error, never exit 1 (a failed verification)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken if target == "existing-file" else taken / "sub"
        scen = self.write_scenario(tmp_path)
        assert main([command, "--scenario", scen, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "IOError"
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**30], ids=["cap+1", "1e30"])
    def test_samples_above_cap_exit_2(self, tmp_path, capsys, samples):
        scen = self.write_scenario(tmp_path)
        assert main(["evolve", "--scenario", scen, "--samples", str(samples),
                     "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "InvalidArgumentError"
        assert list(tmp_path.glob("*.csv")) == []

    def test_verify_on_an_eigenstate_exits_0(self, tmp_path):
        # one outcome is certain: no number of trials gives the chi-square
        # test a second category, so it has zero degrees of freedom and passes
        scen = self.write_scenario(tmp_path, state={"re": [1, 0], "im": [0, 0]})
        assert main(["verify", "--scenario", scen, "--trials", "100000",
                     "--out", str(tmp_path)]) == 0
        reports = json.loads((tmp_path / "verify.json").read_text())["reports"]
        chi2 = next(r for r in reports if r["name"] == "chi-square")
        assert (chi2["statistic"], chi2["threshold"], chi2["passed"]) == (0.0, 0.0, True)
        assert set(chi2["digest"]) == {"dimension", "seed", "trials"}

    def test_verify_on_the_lowest_level_of_a_wide_spectrum_exits_0(self, tmp_path):
        # levels 0 and 1 lie 1e-9 of the spectral radius apart; the minimizer
        # must keep descending until level 1 is 0, not a mix of e0 and e1
        scen = self.write_scenario(
            tmp_path, observable={"re": np.diag([0.0, 1.0, 1e9]).tolist(), "im": [[0] * 3] * 3},
            state={"re": [1, 0, 0], "im": [0, 0, 0]}, dimension=3)
        assert main(["verify", "--scenario", scen, "--out", str(tmp_path)]) == 0
        reports = json.loads((tmp_path / "verify.json").read_text())["reports"]
        assert next(r for r in reports if r["name"] == "courant-fischer")["statistic"] <= 1e-15

    def test_verify_with_a_thin_outcome_and_few_trials_exits_2(self, tmp_path, capsys):
        # the second outcome has probability 1e-6: more trials would test it
        scen = self.write_scenario(tmp_path, state={"re": [1, 1e-3], "im": [0, 0]})
        assert main(["verify", "--scenario", scen, "--trials", "100"]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"]["type"] == "InsufficientTrialsError"

    def test_stdout_default(self, tmp_path, capsys):
        scen = self.write_scenario(tmp_path)
        assert main(["probs", "--scenario", scen]) == 0
        out = capsys.readouterr().out
        assert "outcome,probability" in out


@st.composite
def admissible_scenarios(draw):
    """An admissible scenario document (d = 1..8, normalize: true) whose
    observable is random, has a degenerate spectrum, or is diagonal with a
    state that leaves an outcome at probability exactly zero."""
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "degenerate", "zero-outcome"]))
    rng = master_rng(draw(st.integers(0, 2**32)))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    if kind == "random":
        m = 0.5 * (g + g.conj().T)
    elif kind == "degenerate":  # levels from -2..2 in a rotated basis
        values = np.array(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), float)
        q = np.linalg.qr(g)[0]
        m = q @ np.diag(values) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
    else:  # distinct levels in the standard basis: a masked component has probability 0
        m = np.diag(np.arange(d, dtype=float))
        psi = psi * np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(any)))
    return {
        "dimension": d,
        "hbar": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "observable": {"re": m.real.tolist(), "im": m.imag.tolist()},
        "state": {"re": psi.real.tolist(), "im": psi.imag.tolist()},
        "normalize": True,
        "seed": draw(st.integers(0, 2**64)),
    }


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """`main(argv)` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def csv_rows(text: str, header: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == header
    return [line.split(",") for line in lines[1:]]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(admissible_scenarios(), st.integers(1, 10**4), st.sampled_from(["csv", "structured"]))
def test_sample_contract_on_generated_scenarios(tmp_path_factory, doc, trials, fmt):
    path = tmp_path_factory.mktemp("sample") / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(["sample", "--scenario", str(path), "--trials", str(trials),
                               "--format", fmt])
    assert (code, err) == (0, "")
    if fmt == "structured":
        table = json.loads(out)
        counts, reference = table["counts"], table["reference"]
    else:
        rows = csv_rows(out, "outcome,count,frequency,reference")
        counts, reference = [int(r[1]) for r in rows], [float(r[3]) for r in rows]
    assert sum(counts) == trials
    assert all(c >= 0 for c in counts)
    assert all(c == 0 for c, r in zip(counts, reference) if r == 0.0)
    assert abs(sum(reference) - 1.0) <= 1e-12


@settings(max_examples=60, derandomize=True, deadline=None)
@given(admissible_scenarios(), st.sampled_from(["spectrum", "probs"]),
       st.sampled_from(["csv", "structured"]))
def test_spectrum_and_probs_contract_on_generated_scenarios(tmp_path_factory, doc, command,
                                                            fmt):
    path = tmp_path_factory.mktemp(command) / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main([command, "--scenario", str(path), "--format", fmt])
    assert (code, err) == (0, "")
    matrix = np.array(doc["observable"]["re"]) + 1j * np.array(doc["observable"]["im"])
    es = shellqm.eigh(shellqm.HermitianObservable(matrix))
    if command == "spectrum":
        if fmt == "structured":
            table = json.loads(out)
            values = table["eigenvalues"]
            cluster = [k for k, members in enumerate(table["clusters"]) for _ in members]
        else:
            rows = csv_rows(out, "level,eigenvalue,cluster")
            values, cluster = [float(r[1]) for r in rows], [int(r[2]) for r in rows]
        ref = np.linalg.eigvalsh(matrix)
        tol = 1e-10 * max(1.0, float(np.linalg.norm(matrix, 2)))
        assert np.max(np.abs(np.array(values) - ref)) <= tol
        assert cluster == es.cluster.tolist()
    else:
        if fmt == "structured":
            table = json.loads(out)
            values, probabilities = table["values"], table["probabilities"]
        else:
            rows = csv_rows(out, "outcome,probability")
            values, probabilities = [float(r[0]) for r in rows], [float(r[1]) for r in rows]
        # one outcome per cluster of the solver: no degenerate level split in two
        assert values == es.cluster_values.tolist()
        assert all(p >= 0.0 for p in probabilities)
        assert abs(sum(probabilities) - 1.0) <= 1e-12


@settings(max_examples=40, derandomize=True, deadline=None)
@given(admissible_scenarios(), st.integers(2000, 10**4), st.sampled_from(["csv", "structured"]))
def test_verify_contract_on_generated_scenarios(tmp_path_factory, doc, trials, fmt):
    path = tmp_path_factory.mktemp("verify") / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(["verify", "--scenario", str(path), "--trials", str(trials),
                               "--format", fmt])
    assert code in (0, 1) and err == ""
    document = json.loads(out)  # one document, whatever the format
    passed = [report["passed"] for report in document["reports"]]
    assert document["passed"] == (code == 0) == all(passed)
    # every level of the spectrum, each found by the minimizer
    courant_fischer = next(r for r in document["reports"] if r["name"] == "courant-fischer")
    assert courant_fischer["passed"]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(admissible_scenarios(), st.sampled_from(["csv", "structured"]))
def test_mean_contract_on_generated_scenarios(tmp_path_factory, doc, fmt):
    path = tmp_path_factory.mktemp("mean") / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(["mean", "--scenario", str(path), "--format", fmt])
    assert (code, err) == (0, "")
    if fmt == "structured":
        table = json.loads(out)
        mean, direct, difference = (table[k] for k in
                                    ("mean_of_outcomes", "observable_over_hbar", "difference"))
    else:
        [row] = csv_rows(out, "mean_of_outcomes,observable_over_hbar,difference")
        mean, direct, difference = map(float, row)
    assert difference == mean - direct
    # scaled by the spectral radius, not by the value: a wide spectrum's
    # small mean is still computed to the spectrum's own rounding
    matrix = np.array(doc["observable"]["re"]) + 1j * np.array(doc["observable"]["im"])
    assert abs(difference) <= 1e-10 * max(1.0, float(np.linalg.norm(matrix, 2)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(admissible_scenarios(), st.integers(1, 64),
       st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False),
       st.sampled_from(["csv", "structured"]))
def test_evolve_contract_on_generated_scenarios(tmp_path_factory, doc, samples, time, fmt):
    path = tmp_path_factory.mktemp("evolve") / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(["evolve", "--scenario", str(path), "--samples", str(samples),
                               f"--time={time!r}", "--format", fmt])
    assert (code, err) == (0, "")
    hbar, d = doc["hbar"], doc["dimension"]
    if fmt == "structured":
        trajectory = json.loads(out)["trajectory"]
        times = [row["t"] for row in trajectory]
        residuals = [float(np.sum(np.square(row["re"]) + np.square(row["im"]))) - hbar
                     for row in trajectory]
    else:
        header = ",".join(["t", *(f"{p}_{k}" for k in range(1, d + 1) for p in ("re", "im")),
                           "norm_residual"])
        rows = csv_rows(out, header)
        assert all(len(r) == 2 * d + 2 for r in rows)
        times, residuals = [float(r[0]) for r in rows], [float(r[-1]) for r in rows]
    assert times == np.linspace(0.0, time, samples + 1).tolist()
    assert all(abs(r) <= TOL_SHELL * hbar for r in residuals)


class TestGoldenOutputs:
    """The committed golden files regenerate bit for bit."""

    COMMANDS = {
        "spectrum": ["spectrum"],
        "probs": ["probs"],
        "mean": ["mean"],
        "evolve": ["evolve", "--samples", "8"],
        "sample": ["sample"],
        "verify": ["verify"],
    }

    def assert_regenerates(self, name, scenario, golden, tmp_path):
        argv = self.COMMANDS[name] + ["--scenario", str(scenario), "--out", str(tmp_path)]
        code = main(argv)
        assert code == 0
        ext = "json" if name == "verify" else "csv"
        produced = (tmp_path / f"{name}.{ext}").read_bytes()
        committed = (golden / f"{name}.{ext}").read_bytes()
        assert produced == committed

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_golden(self, name, tmp_path):
        self.assert_regenerates(name, EQUAL_Q2, GOLDEN, tmp_path)

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_golden_degenerate_d5(self, name, tmp_path):
        # complex, non-diagonal and with a degenerate pair, so the bytes pin
        # the eigensolver's rotations and the minimizer's Courant-Fischer levels
        self.assert_regenerates(name, REPO / "scenarios" / "degenerate_d5.json",
                                GOLDEN / "degenerate_d5", tmp_path)
