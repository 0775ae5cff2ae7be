import io
import json

import numpy as np
import pytest

from mcperturb import (
    IntensityMatrix,
    ParseError,
    StochasticMatrix,
    ValidationError,
    ctmc_hitting_times,
    hitting_times,
)
from mcperturb import cli
from mcperturb.chainfile import load_chain_file, save_chain_file
from mcperturb.cli import main
from mcperturb.gallery import GalleryModel, meyer4, mm1
from tests.conftest import shrink_coefficient


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture()
def meyer_file(tmp_path):
    path = tmp_path / "meyer4.json"
    save_chain_file(meyer4(), str(path))
    return str(path)


@pytest.fixture()
def perturbed_meyer_file(tmp_path):
    model = meyer4()
    P = model.chain.entries
    Pt = P.copy()
    Pt[3, 0] += 0.01
    Pt[3, 1] -= 0.01
    # weights = 1 + mean hitting times onto 0: a valid geometric drift shape
    payload = {
        "kind": "dtmc",
        "states": 4,
        "matrix": [list(map(float, r)) for r in P],
        "perturbed_matrix": [list(map(float, r)) for r in Pt],
        "weight_function": [1.0, 28 / 9, 29 / 9, 34 / 9],
    }
    path = tmp_path / "meyer4_pair.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestChainFile:
    def test_roundtrip(self, meyer_file):
        cf = load_chain_file(meyer_file)
        assert cf.kind == "dtmc"
        assert cf.states == 4
        np.testing.assert_allclose(cf.chain.entries, meyer4().chain.entries)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "dtmc", "states": 2}')
        with pytest.raises(ParseError, match="matrix"):
            load_chain_file(str(p))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError, match="line"):
            load_chain_file(str(p))

    def test_wrong_row_length(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "dtmc", "states": 2,
                                 "matrix": [[1.0], [0.5, 0.5]]}))
        with pytest.raises(ParseError, match="row 0"):
            load_chain_file(str(p))

    def test_non_numeric_entry(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "dtmc", "states": 2,
                                 "matrix": [[1.0, "x"], [0.5, 0.5]]}))
        with pytest.raises(ParseError, match=r"\(0, 1\)"):
            load_chain_file(str(p))

    @pytest.mark.parametrize("entry", ["1.0", True, None, [1.0]])
    def test_non_numeric_weight(self, perturbed_meyer_file, entry):
        payload = json.loads(open(perturbed_meyer_file).read())
        payload["weight_function"][2] = entry
        with open(perturbed_meyer_file, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ParseError, match="field 'weight_function' entry 2 is not numeric"):
            load_chain_file(perturbed_meyer_file)
        assert run_cli("validate", perturbed_meyer_file)[0] == 2

    def test_nonstochastic_row_names_row(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "dtmc", "states": 2,
                                 "matrix": [[0.5, 0.5], [0.5, 0.4]]}))
        with pytest.raises(ValidationError, match="row 1"):
            load_chain_file(str(p))

    def test_weight_function_parsed(self, perturbed_meyer_file):
        cf = load_chain_file(perturbed_meyer_file)
        assert cf.weight_function is not None
        assert cf.perturbed is not None


class TestValidateCommand:
    def test_meyer(self, meyer_file):
        code, text = run_cli("validate", meyer_file)
        assert code == 0
        assert "dtmc, irreducible, aperiodic, n=4" in text

    def test_periodic_report(self, tmp_path):
        p = tmp_path / "swap.json"
        p.write_text(json.dumps({"kind": "dtmc", "states": 2,
                                 "matrix": [[0.0, 1.0], [1.0, 0.0]]}))
        code, text = run_cli("validate", str(p))
        assert code == 0
        assert "period 2" in text

    def test_ctmc_report(self, tmp_path):
        p = tmp_path / "gen.json"
        p.write_text(json.dumps({"kind": "ctmc", "states": 2,
                                 "matrix": [[-1.0, 1.0], [2.0, -2.0]]}))
        code, text = run_cli("validate", str(p))
        assert code == 0
        assert "uniformization constant 2" in text

    @pytest.mark.parametrize("payload,text,detail", [
        ({"kind": "dtmc", "states": 2, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
         "dtmc, irreducible, period 2, n=2\n",
         {"aperiodic": False, "irreducible": True, "kind": "dtmc", "period": 2, "states": 2}),
        ({"kind": "ctmc", "states": 2, "matrix": [[-1.0, 1.0], [2.0, -2.0]],
          "perturbed_matrix": [[-1.5, 1.5], [2.0, -2.0]]},
         "ctmc, irreducible, uniformization constant 2, n=2\n",
         {"irreducible": True, "kind": "ctmc", "perturbed": True, "states": 2,
          "uniformization_constant": 2.0}),
    ], ids=["dtmc", "ctmc"])
    def test_text_and_json_report_of_each_kind(self, tmp_path, payload, text, detail):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps(payload))
        assert run_cli("validate", str(p)) == (0, text)
        code, out = run_cli("validate", str(p), "--format", "json")
        assert code == 0
        assert json.loads(out) == detail

    def test_invalid_file_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "dtmc", "states": 2,
                                 "matrix": [[0.5, 0.5], [0.5, 0.4]]}))
        code, _ = run_cli("validate", str(p))
        assert code == 2


class TestBoundsCommand:
    def test_meyer_table(self, meyer_file):
        code, text = run_cli("bounds", meyer_file, "--m-max", "2")
        assert code == 0
        assert "seneta_best" in text
        assert "small_set[m=2]" in text
        assert "3.2" in text

    def test_gallery_name_input(self):
        code, text = run_cli("bounds", "funderlic8", "--m-max", "1", "--format", "json")
        assert code == 0
        payload = json.loads(text)
        by_name = {r["bound_name"]: r for r in payload["reports"]}
        assert by_name["small_set[m=1]"]["ell"] == pytest.approx(11.3636, abs=1e-3)
        assert by_name["seneta_best"]["ell"] == pytest.approx(11.3352, abs=1e-3)

    def test_perturbed_file_reports_gap_and_validity(self, perturbed_meyer_file):
        code, text = run_cli("bounds", perturbed_meyer_file, "--v-norm",
                             "--format", "json")
        assert code == 0
        payload = json.loads(text)
        for rep in payload["reports"]:
            if rep["bound_value"] is not None and rep["hypotheses_hold"]:
                assert rep["exact_gap"] is not None
                assert rep["valid"] is True
        names = {r["bound_name"] for r in payload["reports"]}
        assert "v_norm_with_stationary" in names

    def test_hypothesis_warning_exit_code(self, tmp_path):
        # queue generator: contraction and common-rate hypotheses fail inline
        code, text = run_cli("bounds", "mm1", "--truncation", "30")
        assert code == 1
        assert "FAILED" in text

    def test_v_norm_on_transition_matrix_model_with_band_like_extras(self):
        # birth-death stores per-state move probabilities under the same
        # extras keys as the band generators; they are not drift weights
        code, text = run_cli("bounds", "birth-death", "--v-norm")
        assert code == 1
        rows = {line.split()[0]: line for line in text.splitlines()[2:]}
        assert set(rows) == {"seneta", "seneta_best", "small_set", "hitting_time_drift"}
        assert "FAILED" in rows["seneta"] and "FAILED" in rows["small_set"]

    def test_perturbed_file_table_has_a_verdict_column(self, perturbed_meyer_file):
        code, text = run_cli("bounds", perturbed_meyer_file)
        assert code == 0
        header, _, *rows = text.splitlines()
        assert header.split() == ["bound", "hypotheses", "ell", "value", "gap", "valid"]
        assert rows and all(row.split()[-1] == "yes" for row in rows)

    def test_json_determinism(self, meyer_file):
        _, t1 = run_cli("bounds", meyer_file, "--format", "json")
        _, t2 = run_cli("bounds", meyer_file, "--format", "json")
        assert t1 == t2

    def test_drift_file_unit_certificate(self, meyer_file, tmp_path):
        from mcperturb import hitting_times
        from mcperturb.gallery import meyer4

        m = hitting_times(meyer4().chain, 0)
        drift = tmp_path / "drift.json"
        drift.write_text(json.dumps({"taboo_state": 0, "values": list(map(float, m))}))
        code, text = run_cli("bounds", meyer_file, "--drift-file", str(drift),
                             "--format", "json")
        assert code == 0
        payload = json.loads(text)
        by_name = {r["bound_name"]: r for r in payload["reports"]}
        assert by_name["unit_drift"]["ell"] == pytest.approx(2 * m.max() ** 2, rel=1e-9)

    @pytest.mark.parametrize("model,hitting,name,exit_code", [
        (meyer4, hitting_times, "unit_drift", 0),
        (lambda: mm1(truncation=6), ctmc_hitting_times, "ctmc_unit_drift", 1),
    ], ids=["dtmc", "ctmc"])
    def test_drift_file_unit_drift_on_both_kinds(self, tmp_path, model, hitting, name,
                                                 exit_code):
        # a drift vector with its zero at the taboo state is a unit-drift
        # function for transition matrices and generators alike
        chain_file = tmp_path / "chain.json"
        save_chain_file(model(), str(chain_file))
        h = hitting(model().chain, 1)
        drift = tmp_path / "drift.json"
        drift.write_text(json.dumps({"taboo_state": 1, "values": list(map(float, h))}))
        code, text = run_cli("bounds", str(chain_file), "--drift-file", str(drift),
                             "--format", "json")
        assert code == exit_code
        by_name = {r["bound_name"]: r for r in json.loads(text)["reports"]}
        assert by_name[name]["hypotheses_hold"]
        assert by_name[name]["info"]["taboo_state"] == 1
        assert by_name[name]["ell"] == 2 * h.max() ** 2

    def test_drift_file_that_violates_the_drift_inequality(self, meyer_file, tmp_path):
        # the violated certificate is a failed hypothesis of unit_drift, not an error
        m = hitting_times(meyer4().chain, 0)
        m[1] /= 2.0
        drift = tmp_path / "drift.json"
        drift.write_text(json.dumps({"taboo_state": 0, "values": list(map(float, m))}))
        code, text = run_cli("bounds", meyer_file, "--drift-file", str(drift),
                             "--format", "json")
        assert code == 1
        by_name = {r["bound_name"]: r for r in json.loads(text)["reports"]}
        assert not by_name["unit_drift"]["hypotheses_hold"]
        assert by_name["unit_drift"]["ell"] is None
        assert all(r["hypotheses_hold"] for k, r in by_name.items() if k != "unit_drift")

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read drift file"),
        ("{not json", "cannot read drift file"),
        ('{"taboo_state": 0}', "drift file needs a 'values' array"),
        ("[0.0, 1.0, 2.0, 3.0]", "drift file needs a 'values' array"),
    ], ids=["missing", "malformed", "no-values", "not-an-object"])
    def test_drift_file_that_cannot_be_read(self, meyer_file, tmp_path, capsys, content,
                                            message):
        drift = tmp_path / "drift.json"
        if content is not None:
            drift.write_text(content)
        code, out = run_cli("bounds", meyer_file, "--drift-file", str(drift))
        assert (code, out) == (2, "")
        assert message in capsys.readouterr().err

    def test_drift_file_size_mismatch(self, meyer_file, tmp_path):
        drift = tmp_path / "drift.json"
        drift.write_text(json.dumps({"taboo_state": 0, "values": [0.0, 1.0]}))
        code, _ = run_cli("bounds", meyer_file, "--drift-file", str(drift))
        assert code == 2

    @pytest.mark.parametrize("taboo", [4, 7, -1, "x", 1.7, True, None])
    def test_drift_file_taboo_state_must_be_a_state(self, meyer_file, tmp_path, capsys, taboo):
        drift = tmp_path / "drift.json"
        drift.write_text(json.dumps({"taboo_state": taboo, "values": [0.0, 1.0, 2.0, 3.0]}))
        code, _ = run_cli("bounds", meyer_file, "--drift-file", str(drift))
        assert code == 2
        assert "taboo_state must be an integer state in [0, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [[0.0, "a", 1.0, 2.0], [0.0, True, 1.0, 2.0],
                                        [0.0, [1.0], 1.0, 2.0], {"0": 1.0}])
    def test_drift_file_values_must_be_numbers(self, meyer_file, tmp_path, capsys, values):
        drift = tmp_path / "drift.json"
        drift.write_text(json.dumps({"taboo_state": 0, "values": values}))
        code, _ = run_cli("bounds", meyer_file, "--drift-file", str(drift))
        assert code == 2
        assert "field 'values'" in capsys.readouterr().err


class TestHittingCommand:
    def test_birth_death_closed_form_column(self):
        code, text = run_cli("hitting", "birth-death(20)", "--target", "0",
                             "--format", "json")
        assert code == 0
        payload = json.loads(text)
        solved = np.array(payload["hitting_times"])
        closed = np.array(payload["closed_form"])
        np.testing.assert_allclose(solved, closed, atol=1e-9)
        assert solved[0] == 0.0

    def test_chain_file_named_like_a_gallery_model(self, tmp_path, monkeypatch):
        # a relative path that starts with a gallery name is still a file,
        # and a file carries no closed-form column
        monkeypatch.chdir(tmp_path)
        save_chain_file(meyer4(), "birth-death-copy.json")
        code, text = run_cli("hitting", "birth-death-copy.json", "--target", "0",
                             "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert payload["input"] == "birth-death-copy.json"
        assert "closed_form" not in payload
        np.testing.assert_array_equal(payload["hitting_times"],
                                      hitting_times(meyer4().chain, 0))

    def test_table_has_a_closed_form_column_for_birth_death_models_only(self, meyer_file):
        code, text = run_cli("hitting", "birth-death(3)", "--target", "0")
        assert code == 0
        header, _, *rows = text.splitlines()
        assert header.split() == ["state", "mean_steps", "closed_form"]
        solved = json.loads(run_cli("hitting", "birth-death(3)", "--target", "0",
                                    "--format", "json")[1])["hitting_times"]
        assert [row.split()[:2] for row in rows] == [[str(i), f"{m:.6g}"]
                                                     for i, m in enumerate(solved)]
        assert all(row.split()[1] == row.split()[2] for row in rows)
        code, text = run_cli("hitting", meyer_file, "--target", "0")
        assert code == 0
        assert text.splitlines()[0].split() == ["state", "mean_steps"]

    def test_target_row_zero(self, meyer_file):
        code, text = run_cli("hitting", meyer_file, "--target", "2",
                             "--format", "json")
        payload = json.loads(text)
        assert payload["hitting_times"][2] == 0.0

    def test_geometric_return_constant_column(self):
        code, text = run_cli("hitting", "geometric-return(0.5)", "--truncation",
                             "50", "--target", "0", "--format", "json")
        payload = json.loads(text)
        np.testing.assert_allclose(payload["hitting_times"][1:], 2.0, atol=1e-9)


class TestVerifyCommand:
    def test_meyer_verify_clean(self):
        code, text = run_cli("verify", "meyer4", "--cases", "50", "--seed", "7",
                             "--magnitude", "0.01")
        assert code == 0
        assert "0 violations" in text

    @pytest.mark.parametrize("magnitude", ["-0.01", "nan"])
    def test_negative_or_non_finite_magnitude_exits_2(self, capsys, magnitude):
        code, _ = run_cli("verify", "meyer4", "--cases", "5", "--magnitude", magnitude)
        assert code == 2
        assert "magnitude must be finite and >= 0" in capsys.readouterr().err

    def test_identities_only(self):
        code, text = run_cli("verify", "funderlic8", "--cases", "0")
        assert code == 0
        assert "perturbation_identity" in text

    def test_json_output(self):
        code, text = run_cli("verify", "meyer4", "--cases", "10",
                             "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert payload["results"][0]["violations"] == 0

    def test_clean_run_lists_no_violation_seeds(self):
        code, text = run_cli("verify", "meyer4", "--cases", "10", "--format", "json")
        assert code == 0
        assert json.loads(text)["results"][0]["violation_seeds"] == []
        code, text = run_cli("verify", "meyer4", "--cases", "10")
        assert "violation seeds" not in text

    def test_violation_seeds_in_text_and_json(self, monkeypatch):
        # a coefficient shrunk to zero makes every case with a nonzero gap fail
        shrink_coefficient(monkeypatch, "seneta_best", 0.0)
        code, text = run_cli("verify", "meyer4", "--cases", "4", "--seed", "7",
                             "--format", "json")
        assert code == 3
        entry = json.loads(text)["results"][0]
        assert entry["violation_seeds"] == [[7, 0], [7, 1], [7, 2], [7, 3]]
        code, text = run_cli("verify", "meyer4", "--cases", "4", "--seed", "7")
        assert code == 3
        assert "    violation seeds: (7, 0), (7, 1), (7, 2), (7, 3)\n" in text

    @pytest.mark.parametrize("kind,chain", [
        ("dtmc", lambda: StochasticMatrix([[1.0]])),
        ("ctmc", lambda: IntensityMatrix([[0.0]])),
    ], ids=["dtmc", "ctmc"])
    def test_one_state_chain_file(self, tmp_path, capsys, kind, chain):
        # a 1x1 matrix has no nonzero perturbation: a library error, not a crash
        path = tmp_path / "one.json"
        model = GalleryModel(name="one-state", kind=kind, chain=chain())
        save_chain_file(model, str(path))
        code, _ = run_cli("verify", str(path), "--cases", "3")
        assert code == 2
        assert "could not perturb model" in capsys.readouterr().err

    def test_a_nan_identity_residual_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(cli, "identity_residuals",
                            lambda model, **kwargs: {"perturbation_identity": float("nan")})
        code, text = run_cli("verify", "meyer4", "--cases", "0", "--format", "json")
        assert code == 3
        assert json.loads(text)["results"][0]["identity_failure"] is True

    @pytest.mark.parametrize("argv,message", [
        (["verify", "mm1", "--truncation", "1"], "truncation must be an integer of at least 3"),
        (["verify", "meyer4", "--truncation", "10"], "does not take a truncation level"),
        (["verify", "meyer4", "--seed", "-1"], "seed must be a nonnegative integer, got -1"),
        (["bounds", "odd-even-p", "--truncation", "1"],
         "truncation must be an integer of at least 2, got 1"),
    ])
    def test_a_size_or_seed_the_input_cannot_take_exits_2(self, capsys, argv, message):
        # a named model gets the truncation as given, with no retry at its default
        code, out = run_cli(*argv, "--cases", "2") if argv[0] == "verify" else run_cli(*argv)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["bounds"], ["hitting", "--target", "0"], ["verify", "--cases", "0"],
    ], ids=["bounds", "hitting", "verify"])
    def test_a_truncation_with_a_chain_file_exits_2(self, capsys, meyer_file, argv):
        # the file's chain has its own size: the flag is refused, not dropped
        code, out = run_cli(argv[0], meyer_file, "--truncation", "10", *argv[1:])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"--truncation applies to gallery models, not to the chain file {meyer_file}" in err

    @pytest.mark.parametrize("path", ["meyer4", "file"])
    def test_a_path_with_all_exits_2(self, capsys, monkeypatch, meyer_file, path):
        # --all sweeps the gallery, so any path but 'gallery' would be ignored
        monkeypatch.setattr(cli, "identity_residuals", lambda model, **kwargs: pytest.fail())
        path = meyer_file if path == "file" else path
        code, out = run_cli("verify", path, "--all", "--cases", "0")
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"give 'gallery' as the path, not {path!r}" in err

    def test_a_sweep_truncates_only_the_models_that_take_a_truncation(self, monkeypatch):
        sizes = {}

        def residuals(model, **kwargs):
            sizes[model.name] = model.chain.n
            return {}

        monkeypatch.setattr(cli, "identity_residuals", residuals)
        assert run_cli("verify", "gallery", "--cases", "0", "--truncation", "30")[0] == 0
        assert sizes == {"batch-arrival": 30, "birth-death": 21, "funderlic8": 8,
                         "geometric-return": 30, "hessenberg-gi-m-1": 30, "meyer4": 4,
                         "mm1": 30, "odd-even-p": 30}

    def test_full_gallery_sweep(self):
        code, text = run_cli("verify", "gallery", "--all", "--cases", "3",
                             "--truncation", "30", "--format", "json")
        assert code in (0, 1)  # hypothesis-level skips allowed, nothing worse
        payload = json.loads(text)
        assert len(payload["results"]) >= 8
        for entry in payload["results"]:
            assert entry["violations"] == 0
            assert "identity_failure" not in entry
            for v in entry["identity_residuals"].values():
                assert v <= 1e-8


class TestGalleryCommand:
    def test_list(self):
        code, text = run_cli("gallery", "list")
        assert code == 0
        for name in ("funderlic8", "meyer4", "mm1", "odd-even-p", "batch-arrival"):
            assert name in text

    def test_export_import_roundtrip(self, tmp_path):
        dest = tmp_path / "out.json"
        code, _ = run_cli("gallery", "export", "mm1(1, 4)", str(dest),
                          "--truncation", "25")
        assert code == 0
        cf = load_chain_file(str(dest))
        assert cf.kind == "ctmc"
        assert cf.states == 25

    def test_every_model_exports_by_bare_name(self, tmp_path):
        from mcperturb.gallery import list_models

        for i, name in enumerate(list_models()):
            dest = tmp_path / f"model{i}.json"
            trunc = [] if name in ("funderlic8", "meyer4", "birth-death") \
                else ["--truncation", "20"]
            code, _ = run_cli("gallery", "export", name, str(dest), *trunc)
            assert code == 0, name
            load_chain_file(str(dest))

    def test_export_to_an_unwritable_path_exits_2(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "x.json"
        code, text = run_cli("gallery", "export", "meyer4", str(dest))
        assert code == 2 and text == ""
        assert f"error: {dest}: cannot write: " in capsys.readouterr().err
        assert not dest.parent.exists()

    @pytest.mark.parametrize("model,label", [(meyer4(), "ctmc"), (mm1(truncation=12), "dtmc")],
                             ids=["meyer4", "mm1"])
    def test_the_saved_kind_is_the_chains(self, tmp_path, model, label):
        dest = tmp_path / "x.json"
        save_chain_file(GalleryModel(name="x", kind=label, chain=model.chain), str(dest))
        assert load_chain_file(str(dest)).kind == model.kind != label


class TestVNormGalleryWiring:
    def test_queue_certificate_surfaces_drift_parameters(self):
        code, text = run_cli("bounds", "mm1(1, 4)", "--truncation", "40",
                             "--v-norm", "--format", "json")
        assert code == 1  # contraction/common-rate hypotheses fail inline
        payload = json.loads(text)
        by_name = {r["bound_name"]: r for r in payload["reports"]}
        cert = by_name["ctmc_v_norm_certificate"]["info"]
        assert cert["lambda"] == pytest.approx(1.0, abs=1e-9)
        assert cert["b"] == pytest.approx(2.0, abs=1e-9)
