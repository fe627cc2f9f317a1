"""Command line interface: outputs, headers, reruns, and exit codes."""

import dataclasses
import math
import re

import numpy as np
import pytest

import sgcoarse as sg
from sgcoarse import cli
from sgcoarse.core import CONFIG_KEYS


def test_entropy_output(tmp_path, silver_config, run_cli, read_csv):
    out = tmp_path / "run"
    code = run_cli(["entropy", "--config", silver_config, "--out", str(out),
                    "--points", "50"])
    assert code == 0
    header, names, rows = read_csv(out / "entropy.csv")
    assert header[0] == f"# sgcoarse {sg.VERSION}"
    assert "# command = entropy" in header
    assert any(line.startswith("# mass_kg = ") for line in header)
    assert names == ["t", "A", "S_ent"]
    assert rows.shape == (50, 3)
    assert rows[0, 2] == 0.0
    assert np.all(np.diff(rows[:, 2]) >= -1e-12)


def _weighted_config(tmp_path, **overrides):
    """Plain key = value config of the silver parameters with overrides."""
    params = sg.PhysicalParams.silver(**overrides)
    cfg = tmp_path / "params.cfg"
    cfg.write_text("".join(f"{key} = {format(value, '.17g')}\n"
                           for key, value in sg.params_to_entries(params).items()),
                   encoding="utf-8")
    return str(cfg)


def test_entropy_and_info_follow_unequal_weights(tmp_path, run_cli, read_csv):
    # with |c+|^2 = 0.36 both files saturate at the prior entropy, not ln 2
    cfg = _weighted_config(tmp_path, c_plus=0.6 + 0j, c_minus=0.8 + 0j)
    prior = -(0.36 * np.log(0.36) + 0.64 * np.log(0.64))
    out = tmp_path / "run"
    assert run_cli(["entropy", "--config", cfg, "--out", str(out),
                    "--t1", "2e-5", "--points", "5"]) == 0
    assert run_cli(["info", "--config", cfg, "--out", str(out),
                    "--points", "5"]) == 0
    _, _, entropy = read_csv(out / "entropy.csv")
    _, _, info = read_csv(out / "info.csv")
    assert entropy[0, 2] == 0.0
    assert entropy[-1, 2] == pytest.approx(prior, abs=1e-12)
    assert info[-1, 1] == pytest.approx(prior, abs=1e-9)
    assert info[-1, 2] == pytest.approx(prior, abs=1e-12)
    assert np.all(info[:, 1] <= info[:, 2] + 1e-9)


def test_density_output(tmp_path, silver_config, run_cli, read_csv):
    out = tmp_path / "run"
    code = run_cli(["density", "--config", silver_config, "--out", str(out),
                    "--t", "2.25e-05", "--points", "801"])
    assert code == 0
    _, names, rows = read_csv(out / "density.csv")
    assert names == ["x", "rho_plus", "rho_minus", "rho_total"]
    x, rho_p, rho_m, rho_t = rows.T
    np.testing.assert_allclose(rho_t, rho_p + rho_m, rtol=0, atol=1e-22)
    assert np.trapezoid(rho_t, x) == pytest.approx(1.0, abs=1e-6)
    # mirrored branches: rho_+(x) = rho_-(-x) on the symmetric grid
    np.testing.assert_allclose(rho_p, rho_m[::-1], rtol=1e-10, atol=1e-22)


def test_info_output(tmp_path, silver_config, run_cli, read_csv):
    out = tmp_path / "run"
    code = run_cli(["info", "--config", silver_config, "--out", str(out),
                    "--points", "12"])
    assert code == 0
    _, names, rows = read_csv(out / "info.csv")
    assert names == ["t", "H", "S_ent"]
    assert rows.shape == (12, 3)
    assert rows[0, 1] == 0.0
    assert np.all(rows[:, 1] <= rows[:, 2] + 1e-9)


def test_wigner_output(tmp_path, silver_config, run_cli, read_csv):
    out = tmp_path / "run"
    code = run_cli(["wigner", "--config", silver_config, "--out", str(out),
                    "--t", "3e-05", "--grid", "48x48",
                    "--coarse", "--coarse-grid", "16x16"])
    assert code == 0
    _, names, rows = read_csv(out / "wigner_t3e-05.csv")
    assert names == sg.WIGNER_CSV_HEADER.split(",") + ["W_proj_x"]
    assert rows.shape == (48 * 48, 7)
    w_pp, w_mm, re_pm, proj = rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 6]
    np.testing.assert_allclose(proj, 0.5 * (w_pp + w_mm) + re_pm, rtol=0,
                               atol=1e-6 * float(np.max(np.abs(proj))))

    _, _, coarse = read_csv(out / "wigner_coarse_t3e-05.csv")
    assert coarse.shape == (16 * 16, 7)
    diag_max = max(float(np.max(np.abs(coarse[:, 2]))),
                   float(np.max(np.abs(coarse[:, 3]))))
    off_max = float(np.max(np.hypot(coarse[:, 4], coarse[:, 5])))
    assert off_max < 1e-3 * diag_max


def test_verify_passes(tmp_path, silver_config, silver, scales, convergence,
                       run_cli, read_csv, capsys):
    out = tmp_path / "run"
    code = run_cli(["verify", "--config", silver_config, "--out", str(out),
                    "--t-list", "1e-08,2.2752358511326858e-07", "--n", "2048"])
    assert code == 0
    assert "verify: all checks passed" in capsys.readouterr().out
    header, names, rows = read_csv(out / "verify.csv")
    assert names == ["t", "l2_err_plus", "l2_err_minus", "overlap_dev", "norm_drift"]
    assert rows.shape == (2, 5)
    assert np.all(rows[:, 1:3] < 1e-6)
    # the order is measured on the grid the header reports, not the default
    assert "# n_grid = 2048" in header and "# half_width = 10" in header
    _, orders = sg.convergence_order(silver, scales.tau3, n=2048, half_width=10.0)
    assert f"# observed_convergence_order = {format(min(orders), '.17g')}" in header
    assert min(orders) != min(convergence[1])


def test_verify_flags_coarse_timestep(tmp_path, silver_config, run_cli, capsys):
    out = tmp_path / "run"
    code = run_cli(["verify", "--config", silver_config, "--out", str(out),
                    "--coarse-dt"])
    assert code == 3
    err = capsys.readouterr().err
    assert "verify: FAIL closed_form_l2" in err
    assert "convergence warning" in err


def test_rerun_from_own_header_is_identical(tmp_path, silver_config, run_cli):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run_cli(["entropy", "--config", silver_config, "--out", str(first),
                    "--points", "40"]) == 0
    assert run_cli(["entropy", "--config", str(first / "entropy.csv"),
                    "--out", str(second)]) == 0
    assert (first / "entropy.csv").read_bytes() == (second / "entropy.csv").read_bytes()


def test_flags_override_header_settings(tmp_path, silver_config, run_cli, read_csv):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run_cli(["entropy", "--config", silver_config, "--out", str(first),
                    "--points", "40"]) == 0
    assert run_cli(["entropy", "--config", str(first / "entropy.csv"),
                    "--out", str(second), "--points", "25"]) == 0
    _, _, rows = read_csv(second / "entropy.csv")
    assert rows.shape[0] == 25


def test_unknown_subcommand_exits_1(run_cli):
    assert run_cli(["bogus"]) == 1


def test_bad_grid_argument_exits_1(run_cli, silver_config, tmp_path):
    assert run_cli(["wigner", "--config", silver_config,
                    "--out", str(tmp_path), "--grid", "64"]) == 1


@pytest.mark.parametrize("pixels", ["1e-06", "1e-06,2e-25,3", "0,1e-25", "1e-06,nan"])
def test_bad_pixel_argument_exits_1(run_cli, tmp_path, pixels):
    assert run_cli(["wigner", "--out", str(tmp_path), "--t", "3e-05", "--grid", "4x4",
                    "--pixels", pixels]) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_missing_config_exits_2(run_cli, tmp_path):
    assert run_cli(["entropy", "--config", str(tmp_path / "absent.cfg"),
                    "--out", str(tmp_path)]) == 2


def test_bad_config_key_exits_1(run_cli, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("masse_kg = 1.0\n", encoding="utf-8")
    assert run_cli(["entropy", "--config", str(bad), "--out", str(tmp_path)]) == 1


def test_config_without_force_exits_1(run_cli, tmp_path, capsys):
    cfg = tmp_path / "noforce.cfg"
    cfg.write_text("mass_kg = 1.79e-25\nsigma_m = 1e-6\n", encoding="utf-8")
    assert run_cli(["entropy", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "missing required key 'force_N'" in capsys.readouterr().err


def test_unwritable_out_exits_2(run_cli, silver_config, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    assert run_cli(["entropy", "--config", silver_config,
                    "--out", str(blocker / "sub")]) == 2


def test_zero_force_density_works_entropy_fails(run_cli, read_csv, tmp_path, capsys):
    cfg = tmp_path / "f0.cfg"
    cfg.write_text("mass_kg = 1.79e-25\nforce_N = 0\nsigma_m = 1e-6\n",
                   encoding="utf-8")
    out = tmp_path / "d"
    assert run_cli(["density", "--config", str(cfg), "--out", str(out),
                    "--t", "1e-05", "--points", "101"]) == 0
    _, _, rows = read_csv(out / "density.csv")
    np.testing.assert_array_equal(rows[:, 1], rows[:, 2])  # branches coincide
    assert run_cli(["entropy", "--config", str(cfg), "--out", str(out)]) == 1
    assert "no separation timescale" in capsys.readouterr().err


def _old_row(row):
    return ",".join(format(float(v), ".17g") for v in row)


def _wigner_rows(field, proj):
    """The seven CSV columns of every cell, q-major, straight from the field."""
    return [(field.q[i], field.p[j], field.w_pp[i, j], field.w_mm[i, j],
             field.w_pm[i, j].real, field.w_pm[i, j].imag, proj[i, j])
            for i in range(field.q.size) for j in range(field.p.size)]


def test_row_writer_matches_per_value_format(tmp_path, state_early):
    edge = [(-0.0, 5e-324, 1e308, -1e-300, 0.1)]
    field = sg.wigner_field(state_early, np.linspace(-1e-7, 1e-7, 4),
                            np.linspace(-2e-28, 2e-28, 3))
    assert np.any(field.w_pm.imag != 0.0)
    proj = sg.project_spin_direction(field, (1.0, 0.0, 0.0))
    # the same edge values on the axes and in every W column of the Wigner writer
    edge_field = dataclasses.replace(
        field, q=np.array([-0.0, 1e308]), p=np.array([5e-324, -1e-300, 0.1]),
        w_pp=np.array([[-0.0, 5e-324, 1e308], [-1e-300, 0.1, 0.0]]),
        w_mm=np.array([[1e308, -0.0, 0.1], [5e-324, -1e-300, 1.0]]),
        w_pm=np.array([[complex(0.1, -0.0), complex(5e-324, 1e308), -1e-300j],
                       [complex(-0.0, 0.1), complex(1e308, 5e-324), -1e-300]]))
    edge_proj = np.array([[0.1, -1e-300, -0.0], [1e308, 5e-324, 0.0]])
    x = np.linspace(-1e-5, 1e-5, 9)
    scalars = list(zip(x, np.exp(-x * x / 1e-11), np.float64(1) / 3 - x))
    wigner_columns = sg.WIGNER_CSV_HEADER + ",W_proj_x"
    cases = [
        (cli._write_csv, edge, "a,b,c,d,e", edge),
        (cli._write_lines, cli._wigner_lines(field.p, [(field, proj)]), wigner_columns,
         _wigner_rows(field, proj)),
        (cli._write_lines, cli._wigner_lines(edge_field.p, [(edge_field, edge_proj)]),
         wigner_columns, _wigner_rows(edge_field, edge_proj)),
        (cli._write_csv, scalars, "x,y,z", scalars),
    ]
    for k, (write, body, columns, want) in enumerate(cases):
        path = tmp_path / f"rows{k}.csv"
        write(str(path), [], columns, body)
        got = path.read_text(encoding="utf-8").splitlines()[1:]
        assert got == [_old_row(row) for row in want]


@pytest.mark.parametrize("t", ["1e-06", "3e-05"])
def test_streamed_wigner_grid_matches_the_whole_grid_field(tmp_path, silver, run_cli, t):
    # 37 q rows span two q-row blocks, the second one short; the coarse grid
    # is one coarse_grain call on the whole grid
    assert cli._Q_BLOCK < 37 and 37 % cli._Q_BLOCK
    assert run_cli(["wigner", "--t", t, "--grid", "37x5", "--coarse",
                    "--coarse-grid", "9x7", "--out", str(tmp_path)]) == 0
    state = sg.evolve_in_field(silver, float(t))
    for name, (n_q, n_p), coarse in (("wigner", (37, 5), False),
                                     ("wigner_coarse", (9, 7), True)):
        q, p = sg.default_phase_space_grid(silver, float(t), n_q, n_p)
        field = sg.wigner_field(state, q, p)
        if coarse:
            field = sg.coarse_grain(field, sg.CoarsePixelSpec.default())
        proj = sg.project_spin_direction(field, (1.0, 0.0, 0.0))
        text = (tmp_path / f"{name}_t{float(t):g}.csv").read_text(encoding="utf-8")
        body = [line for line in text.splitlines() if not line.startswith("#")][1:]
        assert body == [_old_row(row) for row in _wigner_rows(field, proj)]


def test_load_config_reads_only_the_header(tmp_path, silver_config, run_cli):
    out = tmp_path / "run"
    assert run_cli(["entropy", "--config", silver_config, "--out", str(out),
                    "--points", "5"]) == 0
    good = out / "entropy.csv"
    data = good.read_bytes()
    cut = data.index(b"\nt,A,S_ent\n") + len(b"\nt,A,S_ent\n")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data[:cut] + b"\xff\xfe\x80 not utf-8\n" + data[cut:])
    with pytest.raises(UnicodeDecodeError):
        bad.read_text(encoding="utf-8")
    assert cli._load_config(str(bad)) == cli._load_config(str(good))


@pytest.mark.parametrize("argv, files", [
    (["density", "--points", "51"], ["density.csv"]),
    (["info", "--points", "5"], ["info.csv"]),
    (["wigner", "--t", "3e-05", "--grid", "8x8", "--coarse", "--coarse-grid", "4x4"],
     ["wigner_t3e-05.csv", "wigner_coarse_t3e-05.csv"]),
], ids=["density", "info", "wigner"])
def test_replay_from_each_output_is_identical(tmp_path, silver_config, run_cli, argv, files):
    first = tmp_path / "first"
    assert run_cli([argv[0], "--config", silver_config, "--out", str(first)]
                   + argv[1:]) == 0
    for source in files:
        again = tmp_path / f"replay-{source}"
        assert run_cli([argv[0], "--config", str(first / source),
                        "--out", str(again)]) == 0
        for name in files:
            assert (again / name).read_bytes() == (first / name).read_bytes(), (source, name)


def test_header_settings_apply_only_to_their_own_subcommand(tmp_path, run_cli, read_csv):
    cfg = _weighted_config(tmp_path, c_plus=0.6 + 0j, c_minus=0.8 + 0j)
    a, b, c, d = (tmp_path / name for name in "abcd")
    assert run_cli(["entropy", "--config", cfg, "--out", str(a),
                    "--t1", "1e-6", "--points", "7"]) == 0
    # info reads the entropy file's physical parameters but its own defaults
    assert run_cli(["info", "--config", str(a / "entropy.csv"), "--out", str(b)]) == 0
    entropy_header, _, _ = read_csv(a / "entropy.csv")
    info_header, _, rows = read_csv(b / "info.csv")
    assert rows.shape == (200, 3)
    assert "# t_stop_s = 5.0000000000000002e-05" in info_header
    assert "# points = 200" in info_header
    physical = [line for line in entropy_header
                if line.split(" = ")[0][2:] in CONFIG_KEYS]
    assert "# c_plus_re = 0.59999999999999998" in physical
    assert [line for line in info_header if line in physical] == physical
    # the same as info from a plain config of those parameters
    assert run_cli(["info", "--config", cfg, "--out", str(c)]) == 0
    assert (b / "info.csv").read_bytes() == (c / "info.csv").read_bytes()
    # a same-command replay still takes every setting from the header
    assert run_cli(["entropy", "--config", str(a / "entropy.csv"), "--out", str(d)]) == 0
    assert (a / "entropy.csv").read_bytes() == (d / "entropy.csv").read_bytes()


_EVERY_FLAG = {
    "entropy": (["--t0", "1e-07", "--t1", "3e-06", "--points", "7"],
                ["# t_start_s = 9.9999999999999995e-08",
                 "# t_stop_s = 3.0000000000000001e-06", "# points = 7"], 0),
    "info": (["--t0", "1e-06", "--t1", "2e-05", "--points", "4"],
             ["# t_start_s = 9.9999999999999995e-07",
              "# t_stop_s = 2.0000000000000002e-05", "# points = 4"], 0),
    "density": (["--t", "1e-05", "--points", "31"],
                ["# t_s = 1.0000000000000001e-05", "# points = 31"], 0),
    "wigner-pixels": (["--t", "2e-06", "--grid", "12x10", "--pixels", "2e-06,1e-25",
                       "--coarse-grid", "6x4"],
                      ["# t_s = 1.9999999999999999e-06", "# grid = 12x10", "# coarse = 1",
                       "# Delta_m = 1.9999999999999999e-06",
                       "# delta_kgm_s = 1e-25", "# coarse_grid = 6x4"], 0),
    "wigner-coarse": (["--t", "2e-06", "--grid", "12x10", "--coarse", "--coarse-grid", "6x4"],
                      ["# t_s = 1.9999999999999999e-06", "# grid = 12x10", "# coarse = 1",
                       "# coarse_grid = 6x4"], 0),
    "verify": (["--t-list", "1e-08,2.2752358511326858e-07", "--n", "2048",
                "--half-width", "12", "--coarse-dt"],
               ["# t_list_s = 1e-08,2.2752358511326858e-07", "# n_grid = 2048",
                "# half_width = 12", "# coarse_dt = 1"], 3),
}


@pytest.mark.parametrize("case", list(_EVERY_FLAG))
def test_every_flag_is_echoed_and_replays(tmp_path, run_cli, read_csv, case):
    flags, echo, code = _EVERY_FLAG[case]
    command = case.split("-")[0]
    first = tmp_path / "first"
    assert run_cli([command, "--out", str(first)] + flags) == code
    outputs = sorted(first.iterdir())
    for path in outputs:
        header, _, _ = read_csv(path)
        assert [line for line in header if line in echo] == echo, path.name
        again = tmp_path / f"replay-{path.name}"
        assert run_cli([command, "--config", str(path), "--out", str(again)]) == code
        assert sorted(p.name for p in again.iterdir()) == [p.name for p in outputs]
        for other in outputs:
            assert (again / other.name).read_bytes() == other.read_bytes(), (path.name, other.name)


_HELP_FLAGS = {
    "entropy": ["--t0", "--t1", "--points"],
    "density": ["--t", "--points"],
    "wigner": ["--t", "--grid", "--pixels", "--coarse", "--coarse-grid"],
    "info": ["--t0", "--t1", "--points"],
    "verify": ["--t-list", "--n", "--half-width", "--coarse-dt"],
}


@pytest.mark.parametrize("command", list(_HELP_FLAGS))
def test_help_lists_each_declared_flag(run_cli, capsys, command):
    assert run_cli([command, "--help"]) == 0
    text = capsys.readouterr().out
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", text, flags=re.M)
    assert listed == ["--help", "--config", "--out"] + _HELP_FLAGS[command]


@pytest.mark.parametrize("argv", [
    ["density", "--t", "nan", "--points", "5"],
    ["wigner", "--t", "nan", "--grid", "4x4"],
    ["entropy", "--t1", "inf", "--points", "3"],
    ["info", "--t1", "nan", "--points", "3"],
    ["verify", "--half-width", "nan", "--t-list", "1e-08", "--n", "64"],
    ["verify", "--t-list", ",", "--n", "2048"],
    ["entropy", "--points", "0"],
    ["density", "--points", "0"],
    ["info", "--points", "0"],
    ["entropy", "--points", "-3"],
    ["verify", "--n", "0", "--t-list", "1e-08"],
    ["verify", "--n", "1", "--t-list", "1e-08"],
    ["entropy", "--t0", "-inf", "--points", "3"],
    ["info", "--t1", "inf", "--points", "3"],
    ["density", "--t", "inf", "--points", "5"],
    ["wigner", "--t", "inf", "--grid", "4x4"],
    ["verify", "--t-list", "1e-08,inf", "--n", "64"],
], ids=["density-t", "wigner-t", "entropy-t1", "info-t1", "verify-half-width",
        "verify-no-time", "entropy-points-0", "density-points-0", "info-points-0",
        "entropy-points-negative", "verify-n-0", "verify-n-1", "entropy-t0-inf",
        "info-t1-inf", "density-t-inf", "wigner-t-inf", "verify-t-list-inf"])
def test_unusable_flag_values_exit_1(tmp_path, run_cli, argv):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, key", [
    (["entropy", "--points", "3"], "points"),
    (["density", "--points", "3"], "points"),
    (["info", "--points", "3"], "points"),
    (["verify", "--n", "512", "--t-list", "1e-08"], "n_grid"),
], ids=["entropy", "density", "info", "verify"])
def test_header_count_below_its_minimum_exits_1(tmp_path, run_cli, capsys, argv, key):
    assert run_cli(argv + ["--out", str(tmp_path / "a")]) == 0
    (out,) = (tmp_path / "a").glob("*.csv")
    text = out.read_text(encoding="utf-8").replace(f"# {key} = {argv[2]}\n", f"# {key} = 0\n")
    assert f"# {key} = 0\n" in text
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli([argv[0], "--config", str(bad), "--out", str(tmp_path / "b")]) == 1
    assert "count must be at least" in capsys.readouterr().err
    assert not list((tmp_path / "b").glob("*.csv"))


@pytest.mark.parametrize("argv, key", [
    (["entropy", "--points", "3"], "t_stop_s"),
    (["info", "--points", "3"], "t_start_s"),
    (["density", "--points", "5"], "t_s"),
], ids=["entropy", "info", "density"])
def test_non_finite_header_time_exits_1(tmp_path, run_cli, capsys, argv, key):
    # the time is refused where the header is parsed, before a sweep is built
    assert run_cli(argv + ["--out", str(tmp_path / "a")]) == 0
    (out,) = (tmp_path / "a").glob("*.csv")
    text, n = re.subn(rf"^# {key} = .*$", f"# {key} = inf", out.read_text(encoding="utf-8"),
                      flags=re.M)
    assert n == 1
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli([argv[0], "--config", str(bad), "--out", str(tmp_path / "b")]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not list((tmp_path / "b").glob("*.csv"))


@pytest.mark.parametrize("command", ["entropy", "info"])
def test_non_finite_spin_weight_exits_1(tmp_path, run_cli, capsys, command):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("mass_kg = 1.79e-25\nforce_N = 9.27e-22\nsigma_m = 1e-6\n"
                   "c_plus_re = nan\n", encoding="utf-8")
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path),
                    "--points", "3"]) == 1
    assert "spin weights not normalized" in capsys.readouterr().err


@pytest.mark.parametrize("field, check", [
    ("l2_err_plus", "closed_form_l2"),
    ("l2_err_minus", "closed_form_l2"),
    ("overlap_dev", "overlap"),
    ("norm_drift", "norm_drift"),
])
def test_verify_fails_on_a_nan_check_value(tmp_path, run_cli, capsys, monkeypatch, field, check):
    real = cli.verify_closed_forms

    def nan_in_last_row(params, times, **kwargs):
        report = real(params, times, **kwargs)
        if times[0] != 2e-08:
            return report
        return dataclasses.replace(report, rows=tuple(
            dataclasses.replace(row, **{field: math.nan}) for row in report.rows))

    monkeypatch.setattr(cli, "verify_closed_forms", nan_in_last_row)
    # the NaN sits in the last row, where a plain max() would pass over it
    assert run_cli(["verify", "--out", str(tmp_path), "--t-list", "1e-08,2e-08",
                    "--n", "2048"]) == 3
    assert f"verify: FAIL {check}:" in capsys.readouterr().err
