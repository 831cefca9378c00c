import csv
import importlib.util
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc

import weakmeas
from weakmeas import displaced_thermal_state, position_density
from weakmeas.cli import ROUTE_TOL, _write_csv, main


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


def test_figure_writes_csv_only(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # figure writes into the cwd
    with pytest.raises(SystemExit) as err:
        main(["figure", "h_ideal", "--format", "json", "--steps", "5"])
    assert err.value.code == 1
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "figure", "h_ideal", "--steps", "5")
    assert code == 2 and out == "" and "figure does not read config key format" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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


@pytest.mark.parametrize("command, config, named", [
    (["simulate", "--dim", "16"], {"coupling": "kerr", "readout_phase": 0.7, "pointer_boost": 3},
     "simulate does not read config key pointer_boost or readout_phase"),
    (["weak-value"], {"q": 0.5, "points": 10}, "weak-value does not read config key points"),
    (["figure", "h_ideal"], {"figure_id": "h_noisy"},
     "figure does not read config key figure_id"),
], ids=["simulate", "weak-value", "figure"])
def test_config_key_the_command_does_not_read_is_refused(capsys, tmp_path, monkeypatch,
                                                         command, config, named):
    monkeypatch.chdir(tmp_path)  # figure writes into the cwd
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), *command)
    assert code == 2 and out == "" and named in err
    assert not list(tmp_path.glob("*.csv"))


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

    # the printed minimum and its place are the CSV's, bit for bit
    i = int(np.argmin(re))
    assert [rec["results"][key] for key in ("min_value", "min_phi", "min_xi")] == [
        re[i], phi[i], xi[i]]

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


def test_simulate_generic_mixed_state_imperfect_postselection(capsys):
    # the baseline is the eps = 0 start that every coupling is composed from
    code, out, _ = run_cli(capsys, "simulate", "--coupling", "generic",
                           "--observable", "H", "--alpha-r", "1", "--nth", "0.5",
                           "--eta", "0.9", "--epsilon", "1e-3", "--postselect-q", "-0.5",
                           "--dim", "30")
    assert code == 0
    res = last_json(out)["results"]
    assert res["relative_deviation"] < 1e-5
    assert res["richardson_ratio"] == pytest.approx(4.0, abs=0.05)


def test_simulate_generic_reads_shift_from_state_alone(capsys, monkeypatch):
    """The generic route builds no joint table, no Gauss-Legendre grid and no
    phi grid with an inserted node, and its Richardson ratio still reads 4."""
    from weakmeas import QuadratureGrid, vonneumann

    calls = []
    for owner, name in ((vonneumann, "joint_distribution"), (QuadratureGrid, "with_points"),
                        (QuadratureGrid, "gauss_legendre")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    code, out, _ = run_cli(capsys, "simulate", "--coupling", "generic",
                           "--observable", "H", "--alpha-r", "1", "--nth", "0.5",
                           "--eta", "0.9", "--epsilon", "1e-3", "--postselect-q", "-0.5",
                           "--dim", "30")
    assert code == 0 and calls == []
    assert last_json(out)["results"]["richardson_ratio"] == pytest.approx(4.0, abs=0.05)


def test_simulate_generic_exact_shift_has_no_richardson_ratio(capsys):
    """A number state is an eigenstate of H, so the shift is exact and both
    deviations are round-off: the ratio of the two is reported as null."""
    code, out, _ = run_cli(capsys, "simulate", "--coupling", "generic",
                           "--observable", "H", "--fock", "3", "--eta", "0.8",
                           "--postselect-q", "-0.7")
    assert code == 0
    res = last_json(out)["results"]
    assert res["relative_deviation"] < 1e-14
    assert res["richardson_ratio"] is None


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
        # the kerr and qubit meters measure n and take no --observable
        observable = ["--observable", "n"] if coupling == "generic" else []
        code, out, _ = run_cli(capsys, "simulate", "--coupling", coupling,
                               "--epsilon", "0", *observable, "--alpha-r", "1",
                               "--postselect-q", "-1")
        assert code == 0
        res = last_json(out)["results"]
        assert res["reference_re_weak_value"] == pytest.approx(-1.5, abs=1e-12)
        for key in ("shift_over_epsilon", "sigma_x_slope", "sigma_y_slope"):
            assert res.get(key, 0.0) == 0.0
        assert res.get("extracted_n_w") is None


_SHARED = {"coupling", "epsilon", "alpha_r", "alpha_i", "nth", "fock", "postselect_q", "dim"}
_OWN = {"generic": {"observable", "eta", "pointer_sigma"}, "kerr": {"beta_r", "beta_i"},
        "qubit": {"sx", "sy"}}


@pytest.mark.parametrize("coupling", ["kerr", "qubit", "generic"])
def test_simulate_discrete_meters_record_no_unused_flags(capsys, coupling):
    code, out, _ = run_cli(capsys, "simulate", "--coupling", coupling, "--alpha-r", "0.5",
                           "--postselect-q", "0.5", "--dim", "16")
    assert code == 0
    params = last_json(out)["params"]
    assert set(params) == _SHARED | _OWN[coupling]
    assert params["coupling"] == coupling


@pytest.mark.parametrize("coupling", ["generic", "kerr", "qubit"])
def test_simulate_fock_refuses_state_flags_by_flag_and_config(capsys, tmp_path, coupling):
    argv = ["simulate", "--coupling", coupling, "--fock", "2", "--dim", "16",
            "--epsilon", "0.05", "--postselect-q", "0.3"]
    code, out, err = run_cli(capsys, *argv, "--alpha-r", "3", "--nth", "0.7")
    assert code == 2 and out == "" and "--fock does not use --alpha-r or --nth" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha_i": 0.4}))
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 2 and out == "" and "--fock does not use --alpha-i" in err
    # a number state's record holds no displaced thermal parameter
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    params = set(last_json(out)["params"])
    assert params == (_SHARED - {"alpha_r", "alpha_i", "nth"}) | _OWN[coupling]


@pytest.mark.parametrize("coupling, flags, named", [
    ("generic", ["--sx", "1"], "--sx"),
    ("generic", ["--beta-r", "1", "--sy", "0"], "--beta-r or --sy"),
    ("kerr", ["--pointer-sigma", "2"], "--pointer-sigma"),
    ("kerr", ["--sy", "0.5"], "--sy"),
    ("qubit", ["--beta-i", "0.5"], "--beta-i"),
    ("qubit", ["--pointer-sigma", "1"], "--pointer-sigma"),
])
def test_simulate_refuses_another_couplings_flag_by_flag_and_config(capsys, tmp_path,
                                                                    coupling, flags, named):
    code, out, err = run_cli(capsys, "simulate", "--coupling", coupling, *flags,
                             "--dim", "16")
    assert code == 2 and out == ""
    assert f"--coupling {coupling} does not use {named}" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling": coupling,
                               **{flag[2:].replace("-", "_"): float(value)
                                  for flag, value in zip(flags[::2], flags[1::2])}}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "simulate", "--dim", "16")
    assert code == 2 and out == ""
    assert f"--coupling {coupling} does not use {named}" in err


def test_simulate_refuses_unknown_coupling_from_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling": "optomechanical"}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "simulate", "--dim", "16")
    assert code == 2 and out == ""
    assert 'config key coupling: invalid choice "optomechanical"' in err


@pytest.mark.parametrize("flag", ["--readout-phase", "--pointer-center", "--pointer-boost"])
def test_simulate_deleted_flags_are_unrecognized(capsys, flag):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--coupling", "kerr", flag, "0.4", "--dim", "16"])
    assert err.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# the Motivation state of the kerr meter: complex alpha, thermal, off-centre q
_KERR_STATE = ["--alpha-r", "1", "--alpha-i", "0.3", "--nth", "0.2", "--postselect-q", "-1",
               "--epsilon", "1e-4"]


@pytest.mark.parametrize("beta_r, beta_i", [(1.0, 0.5), (1.0, 1.0), (0.0, 1.0), (-1.0, 0.3),
                                            (1.5, 0.0)])
def test_simulate_kerr_reads_the_quadrature_at_right_angles_to_beta(capsys, beta_r, beta_i):
    """A complex beta needs the readout phase pi/2 + arg beta: at pi/2 the slope
    carries an Im n_w term, 0.21 off at beta = 1 + 0.5i and 8570 at beta = i."""
    code, out, _ = run_cli(capsys, "simulate", "--coupling", "kerr", *_KERR_STATE,
                           "--beta-r", str(beta_r), "--beta-i", str(beta_i))
    assert code == 0
    res = last_json(out)["results"]
    ref = res["reference_re_weak_value"]
    # the benchmark's first-order bound, 20 eps (1 + |Re n_w|)
    assert abs(res["extracted_n_w"] - ref) <= 20 * 1e-4 * (1.0 + abs(ref))
    # pi/2 bit for bit at real beta > 0
    assert res["readout_phase"] == math.pi / 2 + math.atan2(beta_i, beta_r)


def test_simulate_kerr_reads_a_tiny_pointer_amplitude(capsys):
    """At beta = 1e-13 the calibration is about 1e-13, far above its own
    round-off, so the meter is read and is exact to first order."""
    code, out, err = run_cli(capsys, "simulate", "--coupling", "kerr", "--beta-r", "1e-13")
    assert code == 0, err
    res = last_json(out)["results"]
    ref = res["reference_re_weak_value"]
    assert abs(res["extracted_n_w"] - ref) <= 20 * 1e-3 * (1.0 + abs(ref))


@pytest.mark.parametrize("sx, code", [("0", 2), ("1e-14", 0)])
def test_simulate_qubit_refuses_a_zero_bloch_vector(capsys, sx, code):
    got, out, err = run_cli(capsys, "simulate", "--coupling", "qubit", "--sx", sx, "--sy", "0",
                            "--dim", "16")
    assert got == code
    if code:
        assert out == "" and "Bloch vector must be nonzero" in err
    else:
        res = last_json(out)["results"]
        ref = res["reference_re_weak_value"]
        assert abs(res["extracted_n_w"] - ref) <= 20 * 1e-3 * (1.0 + abs(ref))


def test_simulate_kerr_refuses_vacuum_pointer(capsys):
    code, out, err = run_cli(capsys, "simulate", "--coupling", "kerr", "--beta-r", "0",
                             "--dim", "16")
    assert code == 2 and out == ""
    assert "pointer amplitude beta must be nonzero" in err


@pytest.mark.parametrize("coupling", ["kerr", "qubit"])
@pytest.mark.parametrize("flags, named", [
    (["--eta", "0.5"], "--eta"),
    (["--observable", "n"], "--observable"),
    (["--eta", "1", "--observable", "H"], "--observable or --eta"),
])
def test_simulate_discrete_meters_refuse_unused_flags(capsys, coupling, flags, named):
    code, out, err = run_cli(capsys, "simulate", "--coupling", coupling, *flags,
                             "--dim", "16")
    assert code == 2 and out == ""
    assert f"--coupling {coupling} does not use {named}" in err


def test_simulate_discrete_meter_refuses_unused_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling": "qubit", "eta": 0.8}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "simulate", "--dim", "16")
    assert code == 2 and "does not use --eta" in err
    cfg.write_text(json.dumps({"coupling": "generic", "eta": 0.8, "observable": "n"}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "simulate", "--dim", "16")
    params = last_json(out)["params"]
    assert code == 0 and params["eta"] == 0.8 and params["observable"] == "n"


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


@pytest.mark.parametrize("command, config, key", [
    (["weak-value"], {"observable": "x"}, "observable"),
    (["simulate"], {"observable": "x"}, "observable"),
    (["distribution"], {"xi_basis": "custom"}, "xi_basis"),
    (["distribution"], {"kind": "Q"}, "kind"),
    (["simulate"], {"fock": 2.5}, "fock"),
    (["weak-value"], {"q": True}, "q"),
], ids=["weak-value-observable", "simulate-observable", "xi_basis", "kind", "fock", "q"])
def test_config_value_outside_its_flags_type_or_choices_is_refused(capsys, tmp_path,
                                                                   monkeypatch, command,
                                                                   config, key):
    # a config value gets the type and the choices of its flag
    monkeypatch.chdir(tmp_path)  # distribution writes into the cwd
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), *command, "--dim", "16")
    assert code == 2 and out == "" and f"config key {key}" in err
    assert not list(tmp_path.glob("*.csv"))


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


@pytest.mark.parametrize("argv", [
    ["weak-value"], ["simulate"], ["simulate", "--coupling", "kerr"],
    ["distribution", "--points", "20"],
], ids=["weak-value", "simulate", "kerr", "distribution"])
def test_dim_below_two_refused_by_flag_and_config(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # distribution writes into the cwd
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 0}))
    for prefix, flags in (([], ["--dim", "0"]), (["--config", str(cfg)], [])):
        code, out, err = run_cli(capsys, *prefix, *argv, *flags)
        assert code == 2 and out == ""
        assert "dim must be >= 2, got 0" in err


def test_distribution_points_below_one_refused_by_flag_and_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": -3}))
    path = tmp_path / "dist.csv"
    for prefix, flags, value in (([], ["--points", "0"], 0),
                                 (["--config", str(cfg)], [], -3)):
        code, out, err = run_cli(capsys, *prefix, "distribution", "--output", str(path),
                                 *flags)
        assert code == 2 and out == "" and not path.exists()
        assert f"--points must be >= 1, got {value}" in err


@pytest.mark.parametrize("figure_id, flags, named", [
    ("h_ideal", ["--dim", "30"], "--dim"),
    ("p2_eta_nth", ["--eta", "0.7", "--nth", "0.5"], "--eta or --nth"),
    ("h_noisy", ["--alpha-i", "0.5"], "--alpha-i"),
    ("h_noisy", ["--eta-min", "0.6"], "--eta-min"),
    ("h_eta_nth", ["--alpha-r-max", "2"], "--alpha-r-max"),
])
def test_figure_refuses_flags_it_does_not_read(capsys, tmp_path, figure_id, flags, named):
    path = tmp_path / "fig.csv"
    code, out, err = run_cli(capsys, "figure", figure_id, "--output", str(path), *flags)
    assert code == 2 and out == "" and not path.exists()
    assert f"figure {figure_id} does not use {named}:" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): json.loads(value)
                               for flag, value in zip(flags[::2], flags[1::2])}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "figure", figure_id,
                             "--output", str(path))
    assert code == 2 and f"does not use {named}:" in err


def test_figure_reads_swept_ranges_and_pinned_values(capsys, tmp_path):
    # a swept axis takes a range and a pinned one a value
    for argv in (["h_noisy", "--alpha-r-max", "2"], ["p2_eta_nth", "--nth-max", "0.5"],
                 ["h_noisy", "--eta", "0.8"], ["h_eta_nth", "--alpha-r", "1.5"]):
        code, _, _ = run_cli(capsys, "figure", *argv, "--steps", "3",
                             "--output", str(tmp_path / "fig.csv"))
        assert code == 0


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


def test_weak_value_refuses_a_route_gap_between_one_and_ten_route_tols(capsys):
    """At dim 40 the closed form (2.2915816326530614) and the trace formula
    (2.2915854968100891) differ by 3.86e-6, above ROUTE_TOL and below ten of
    it: refused.  At dim 60 the truncation no longer shows, and it passes."""
    argv = ["weak-value", "--observable", "p2", "--alpha-r", "3", "--alpha-i", "1",
            "--nth", "0.9", "--q", "1.5"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "2.2915816326530614" in err and "2.2915854968100891" in err
    code, out, _ = run_cli(capsys, *argv, "--dim", "60")
    assert code == 0
    res = last_json(out)["results"]
    assert abs(res["re"] - res["re_trace_formula"]) <= ROUTE_TOL


def test_weak_value_imaginary_part_matches_the_trace_formula(capsys):
    """Im H_w = alpha_i (q - alpha_r)/(2V), V = n_th + 1/2 + sigma_eta^2: the
    record's ``im`` has the sign of alpha_i (q - alpha_r) and meets the trace
    formula's within ROUTE_TOL."""
    alpha_r, alpha_i, q = 1.0, 0.7, 0.3
    code, out, _ = run_cli(capsys, "weak-value", "--observable", "H", "--alpha-r",
                           str(alpha_r), "--alpha-i", str(alpha_i), "--nth", "0.2",
                           "--eta", "0.8", "--q", str(q))
    assert code == 0
    res = last_json(out)["results"]
    assert res["im"] == pytest.approx(-0.29696969696969694, abs=1e-15)
    assert abs(res["im"] - res["im_trace_formula"]) <= ROUTE_TOL
    assert math.copysign(1.0, res["im"]) == math.copysign(1.0, alpha_i * (q - alpha_r))


def test_csv_rows_match_csv_writer_bytes(tmp_path):
    # every edge value appears as a row node, a column node and a cell
    edge = [0.1, -2.5, 1.0 / 3.0, -0.0, 1e-300, 5e-324, 123456789.0, 1e17, -7.25e-8,
            float("nan"), float("inf"), -float("inf")]
    n = len(edge)
    rows, cols = np.array(edge), np.array(edge[::-1])
    first = np.array([[edge[(i + j) % n] for j in range(n)] for i in range(n)])
    second = np.array([[edge[(i + 2 * j + 5) % n] for j in range(n)] for i in range(n)])
    header = ("a", "b", "c", "d", "e")
    path = tmp_path / "fast.csv"
    _write_csv(str(path), header, rows, cols, first, "0", second)
    ref = tmp_path / "writer.csv"

    def cell(x):
        return format(float(x), ".17g")

    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            for j in range(n):
                writer.writerow([cell(rows[i]), cell(cols[j]), cell(first[i, j]), "0",
                                 cell(second[i, j])])
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("eta, low, high", [(0.999, 1.0, 10.0), (0.9, 0.0, 1e-10)])
def test_distribution_reports_smear_normalization_defect(capsys, tmp_path, eta, low, high):
    # the 200-node grid cannot resolve the kernel near eta = 1; the record
    # says so, and the run is not refused
    code, out, _ = run_cli(capsys, "distribution", "--kind", "T_eta", "--eta", str(eta),
                           "--output", str(tmp_path / "smeared.csv"))
    assert code == 0
    assert low <= last_json(out)["results"]["smear_normalization_defect"] <= high


def test_distribution_unsmeared_record_has_no_smear_defect(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "distribution", "--kind", "T", "--dim", "16",
                           "--points", "60", "--output", str(tmp_path / "plain.csv"))
    assert code == 0
    assert "smear_normalization_defect" not in last_json(out)["results"]


def test_distribution_smear_defect_is_null_when_grid_cannot_probe(capsys, tmp_path):
    # at eta = 0.1 eight kernel widths exceed the grid's half width
    code, out, _ = run_cli(capsys, "distribution", "--kind", "S_eta", "--eta", "0.1",
                           "--dim", "16", "--points", "60",
                           "--output", str(tmp_path / "wide.csv"))
    assert code == 0
    results = last_json(out)["results"]
    assert "smear_normalization_defect" in results
    assert results["smear_normalization_defect"] is None


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded by path."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_cli_round_passes_its_checks(capsys, tmp_path):
    """One round of the benchmark's cold CLI mix, run in process and held to
    the benchmark's own check, so a record field it reads cannot go unseen."""
    workloads = _benchmark_workloads()
    cli_cold = workloads.CliCold(101)
    out_path = str(tmp_path / "output.csv")
    failures = []
    for k in range(cli_cold.ROUND):
        params = cli_cold.inputs(k)
        code = main(cli_cold.argv(params, out_path))
        out = capsys.readouterr()
        result = {"returncode": code, "stdout": out.out, "stderr": out.err}
        result["rows"], _ = workloads.read_output(out_path)
        failures.append(cli_cold.check(None, params, result))
    assert cli_cold.ROUND == 15 and failures == [None] * 15


def test_benchmark_pointer_round_passes_its_checks():
    """One seed-101 round of the benchmark's pointer simulations, run in process
    and held to the benchmark's own check against the closed-form weak value."""
    pointer_sim = _benchmark_workloads().PointerSim(101)
    failures = []
    for k in range(pointer_sim.ROUND):
        params = pointer_sim.inputs(k)
        failures.append(pointer_sim.check(weakmeas, params, pointer_sim.run(weakmeas, params)))
    assert pointer_sim.ROUND == 16 and failures == [None] * 16


def test_benchmark_trace_round_fails_only_its_known_truncation_ops():
    """One seed-101 round of the benchmark's trace sweep, held to its own check.
    Exactly these ops fail, each on the dim-40 truncation fault (ROADMAP item
    1); a change that mends one removes it here."""
    trace_sweep = _benchmark_workloads().TraceSweep(101)
    failed = {}
    for k in range(trace_sweep.ROUND):
        params = trace_sweep.inputs(k)
        reason = trace_sweep.check(weakmeas, params, trace_sweep.run(weakmeas, params))
        if reason is not None:
            failed[k] = reason.split(":", 1)[0]
    assert trace_sweep.ROUND == 128
    assert failed == dict.fromkeys([5, 16, 27, 30, 35, 45, 46, 56, 67, 85, 92, 104, 114,
                                    118, 125], "trace_vs_closed")


def test_benchmark_distribution_round_passes_its_checks():
    """One seed-101 round of the benchmark's quasi-distribution grids, run in
    process and held to the benchmark's own check."""
    distribution_grid = _benchmark_workloads().DistributionGrid(101)
    failures = []
    for k in range(distribution_grid.ROUND):
        params = distribution_grid.inputs(k)
        failures.append(distribution_grid.check(weakmeas, params,
                                                distribution_grid.run(weakmeas, params)))
    assert distribution_grid.ROUND == 8 and failures == [None] * 8


def _readme_cli_commands():
    """The ``weakmeas ...`` lines of the README's CLI block, continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("weakmeas ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the commands write their files into the cwd
    commands = _readme_cli_commands()
    assert len(commands) >= 6
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert set(last_json(out)) == {"params", "results"}


def test_readme_commands_give_the_same_record_by_config(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the commands write their files into the cwd

    def value(text):  # a flag's text as JSON where it parses (numbers), else as text
        try:
            return json.loads(text)
        except ValueError:
            return text

    def run(argv):
        assert main(argv) == 0, argv
        files = {}
        for path in tmp_path.glob("*.csv"):
            files[path.name] = path.read_bytes()
            path.unlink()
        return capsys.readouterr().out, files

    cfg = tmp_path / "cfg.json"
    for argv in _readme_cli_commands():
        first = next(i for i, arg in enumerate(argv) if arg.startswith("--"))
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value(text) for flag, text
                                   in zip(argv[first::2], argv[first + 1::2])}))
        assert run(["--config", str(cfg), *argv[:first]]) == run(argv)
