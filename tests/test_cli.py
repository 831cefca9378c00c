import csv
import json

import numpy as np
import pytest
from scipy.special import erfc

from weakmeas import displaced_thermal_state, position_density
from weakmeas.cli import main, summarize_distribution_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err


def last_json(stdout):
    return json.loads(stdout.splitlines()[-1])


def test_weak_value_negative_energy(capsys):
    code, out, _ = run_cli(capsys, "weak-value", "--observable", "H", "--alpha-r", "1",
                           "--nth", "0", "--eta", "1", "--q", "-1")
    assert code == 0
    rec = last_json(out)
    assert rec["results"]["re"] == pytest.approx(-1.0, abs=1e-12)
    assert rec["results"]["classification"] == "category_ii"
    assert rec["results"]["re_trace_formula"] == pytest.approx(-1.0, abs=1e-8)


def test_weak_value_kinetic_center(capsys):
    code, out, _ = run_cli(capsys, "weak-value", "--observable", "p2", "--alpha-r", "0",
                           "--nth", "0", "--eta", "1", "--q", "0")
    rec = last_json(out)
    assert code == 0
    assert rec["results"]["re"] == pytest.approx(1.0, abs=1e-12)


def test_weak_value_vacuum_photon_number(capsys):
    code, out, _ = run_cli(capsys, "weak-value", "--observable", "n", "--alpha-r", "0",
                           "--alpha-i", "0", "--nth", "0", "--eta", "1", "--q", "0.3")
    rec = last_json(out)
    assert code == 0
    assert rec["results"]["re"] == pytest.approx(0.0, abs=1e-12)


def test_figure_known_cells(capsys, tmp_path):
    path = tmp_path / "h_ideal.csv"
    code, out, _ = run_cli(capsys, "figure", "h_ideal", "--output", str(path))
    assert code == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    cells = {(float(r["alpha_r"]), float(r["alpha_i"])): float(r["probability"])
             for r in rows}
    assert cells[(1.0, 0.0)] == pytest.approx(0.5 * erfc(1.0), abs=1e-9)
    assert last_json(out)["results"]["max_probability"] == pytest.approx(
        0.5 * erfc(1.0), abs=1e-9)


def test_figure_p2_and_n_anchor_cells(capsys, tmp_path):
    path = tmp_path / "p2.csv"
    run_cli(capsys, "figure", "p2_eta_nth", "--output", str(path))
    with open(path) as fh:
        rows = {(float(r["eta"]), float(r["nth"])): float(r["probability"])
                for r in csv.DictReader(fh)}
    assert rows[(1.0, 0.0)] == pytest.approx(erfc(1.0), abs=1e-9)

    path = tmp_path / "n.csv"
    run_cli(capsys, "figure", "n_ideal", "--output", str(path))
    with open(path) as fh:
        rows = {(float(r["alpha_r"]), float(r["alpha_i"])): float(r["probability"])
                for r in csv.DictReader(fh)}
    assert rows[(0.0, 0.0)] == 0.0


def test_figure_json_format(capsys, tmp_path):
    path = tmp_path / "fig.json"
    code, _, _ = run_cli(capsys, "figure", "h_ideal", "--output", str(path),
                         "--format", "json", "--steps", "5")
    assert code == 0
    data = json.loads(path.read_text())
    assert len(data) == 25
    assert {"alpha_r", "alpha_i", "probability"} <= set(data[0])


def test_figure_range_overrides(capsys, tmp_path):
    path = tmp_path / "narrow.csv"
    code, out, _ = run_cli(capsys, "figure", "h_eta_nth", "--output", str(path),
                           "--eta-min", "0.8", "--nth-max", "0.2", "--steps", "5")
    assert code == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    etas = sorted({float(r["eta"]) for r in rows})
    nths = sorted({float(r["nth"]) for r in rows})
    assert etas[0] == 0.8 and etas[-1] == 1.0 and len(etas) == 5
    assert nths[0] == 0.0 and nths[-1] == 0.2

    code, _, err = run_cli(capsys, "figure", "h_eta_nth", "--output", str(path),
                           "--eta-min", "0")
    assert code == 2 and "eta range" in err


def test_figure_summary_round_trips(capsys, tmp_path):
    path = tmp_path / "round.csv"
    _, out, _ = run_cli(capsys, "figure", "h_noisy", "--output", str(path),
                        "--steps", "9")
    printed = last_json(out)["results"]
    with open(path) as fh:
        probs = [float(r["probability"]) for r in csv.DictReader(fh)]
    assert min(probs) == printed["min_probability"]
    assert max(probs) == printed["max_probability"]


def test_figure_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "figure", "n_eta_nth", "--output", str(a), "--steps", "7")
    run_cli(capsys, "figure", "n_eta_nth", "--output", str(b), "--steps", "7")
    assert a.read_bytes() == b.read_bytes()


def test_config_file_preloads_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"observable": "H", "alpha_r": 1.0, "q": -1.0}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "weak-value")
    assert code == 0
    assert last_json(out)["results"]["re"] == pytest.approx(-1.0, abs=1e-12)
    # explicit flag wins over the config value
    code, out, _ = run_cli(capsys, "--config", str(cfg), "weak-value", "--q", "2.0")
    assert last_json(out)["results"]["re"] == pytest.approx(2.0, abs=1e-12)


def test_distribution_thermal_negativity_and_marginals(capsys, tmp_path):
    path = tmp_path / "dist.csv"
    code, out, _ = run_cli(capsys, "distribution", "--kind", "T", "--xi-basis",
                           "momentum", "--nth", "0.5", "--dim", "30",
                           "--points", "80", "--output", str(path))
    assert code == 0
    rec = last_json(out)
    assert rec["results"]["min_value"] < 0
    assert rec["results"]["negative_mass_fraction"] > 0

    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    phi = np.array([float(r["phi"]) for r in rows])
    xi = np.array([float(r["xi"]) for r in rows])
    re = np.array([float(r["re"]) for r in rows])

    # bit-exact round trip of the printed summary from the file alone
    summary = summarize_distribution_rows(re, phi, xi)
    for key, value in summary.items():
        assert rec["results"][key] == value

    # marginal over the second axis reproduces the position density; the
    # quadrature weights are recovered by rebuilding the command's grid
    from weakmeas import default_grid

    rho = displaced_thermal_state(0.0, 0.5, 30)
    qs = np.unique(phi)
    p_ax = np.unique(xi)
    grid = re.reshape(qs.size, p_ax.size)
    rule = default_grid(dim=30, alpha=0.0, n_th=0.5, points=80)
    assert np.allclose(rule.points, p_ax, atol=1e-12)
    marg = grid @ rule.weights
    assert np.max(np.abs(marg - position_density(rho, qs))) < 1e-6


def test_distribution_vacuum_fock_nonnegative(capsys, tmp_path):
    path = tmp_path / "vac.csv"
    code, out, _ = run_cli(capsys, "distribution", "--kind", "T", "--xi-basis", "fock",
                           "--alpha-r", "0", "--nth", "0", "--dim", "16",
                           "--points", "100", "--output", str(path))
    assert code == 0
    assert last_json(out)["results"]["min_value"] >= -1e-12


def test_simulate_generic_matches_profile(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--coupling", "generic",
                           "--observable", "H", "--alpha-r", "1", "--epsilon", "1e-3",
                           "--postselect-q", "-1", "--dim", "30")
    assert code == 0
    res = last_json(out)["results"]
    assert res["reference_re_weak_value"] == pytest.approx(-1.0, abs=1e-12)
    assert abs(res["shift_over_epsilon"] - (-1.0)) < 0.01
    assert res["relative_deviation"] < 0.01


def test_simulate_qubit_fock_state(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--coupling", "qubit", "--fock", "2",
                           "--epsilon", "0.05", "--postselect-q", "0.3",
                           "--sx", "1", "--sy", "0", "--dim", "16")
    assert code == 0
    res = last_json(out)["results"]
    assert res["extracted_n_w"] == pytest.approx(2.0, abs=1e-8)


def test_simulate_kerr_zero_coupling(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--coupling", "kerr", "--epsilon", "0",
                           "--alpha-r", "0.5", "--postselect-q", "0.5", "--dim", "16")
    assert code == 0
    assert last_json(out)["results"]["shift_over_epsilon"] == 0.0


def test_simulate_zero_coupling_reports_alike_on_every_coupling(capsys):
    for coupling in ("generic", "kerr", "qubit"):
        code, out, _ = run_cli(capsys, "simulate", "--coupling", coupling,
                               "--epsilon", "0", "--observable", "n", "--alpha-r", "1",
                               "--postselect-q", "-1")
        assert code == 0
        res = last_json(out)["results"]
        assert res["reference_re_weak_value"] == pytest.approx(-1.5, abs=1e-12)
        for key in ("shift_over_epsilon", "sigma_x_slope", "sigma_y_slope"):
            assert res.get(key, 0.0) == 0.0
        assert res.get("extracted_n_w") is None


@pytest.mark.parametrize("argv, flag", [
    (["weak-value", "--alpha-r", "nan"], "--alpha-r"),
    (["weak-value", "--q", "inf"], "--q"),
    (["weak-value", "--nth", "inf"], "--nth"),
    (["distribution", "--nth", "nan"], "--nth"),
    (["figure", "h_ideal", "--alpha-r-min", "nan"], "--alpha-r-min"),
    (["simulate", "--coupling", "kerr", "--epsilon", "nan"], "--epsilon"),
    (["simulate", "--epsilon", "nan"], "--epsilon"),
    (["simulate", "--coupling", "qubit", "--sx=-inf"], "--sx"),
])
def test_non_finite_flag_refused(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)  # figure and distribution write into the cwd
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{flag} must be finite" in err


def test_non_finite_config_value_refused(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"alpha_r": NaN, "q": Infinity}')
    code, _, err = run_cli(capsys, "--config", str(cfg), "weak-value")
    assert code == 2 and "--alpha-r must be finite" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["figure", "no_such_figure"])
    assert err.value.code == 1
    capsys.readouterr()


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "weak-value", "--eta", "1.5")
    assert code == 2
    assert "efficiency" in err


def test_boosted_pointer_rejected(capsys):
    code, _, err = run_cli(capsys, "simulate", "--coupling", "generic",
                           "--pointer-boost", "0.4", "--dim", "16")
    assert code == 2
    assert "zero-current" in err


def test_dim_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WEAKMEAS_DIM", "24")
    _, out, _ = run_cli(capsys, "weak-value", "--observable", "H",
                        "--alpha-r", "1", "--q", "0")
    assert last_json(out)["params"]["dim"] == 24


@pytest.mark.filterwarnings("ignore:.*truncation")
def test_weak_value_refuses_closed_form_trace_disagreement(capsys):
    # |alpha|^2 = 1e6 lies far beyond the dim-40 truncation
    code, _, err = run_cli(capsys, "weak-value", "--alpha-r", "1e3", "--q", "0.5")
    assert code == 2
    assert "-499499.5" in err and "-2.17" in err and "dim 40" in err


def test_weak_value_agreeing_routes_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "weak-value", "--observable", "n", "--alpha-r", "1.5",
                           "--alpha-i", "0.4", "--nth", "0.3", "--eta", "0.9", "--q", "0.7")
    assert code == 0
    res = last_json(out)["results"]
    assert abs(res["re"] - res["re_trace_formula"]) <= 1e-6
