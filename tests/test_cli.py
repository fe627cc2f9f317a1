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


@pytest.mark.parametrize("c_plus, c_minus", [(1.0, 0.0), (0.0, 1.0)], ids=["up", "down"])
def test_pure_spin_state_runs_and_replays(tmp_path, run_cli, read_csv, c_plus, c_minus):
    # a zero weight gives no spin information, no entanglement and no
    # Wigner block of its own or of the coherence
    cfg = _weighted_config(tmp_path, c_plus=complex(c_plus), c_minus=complex(c_minus))
    first = tmp_path / "first"
    assert run_cli(["info", "--config", cfg, "--out", str(first), "--points", "5"]) == 0
    assert run_cli(["wigner", "--config", cfg, "--out", str(first), "--t", "1e-06",
                    "--grid", "17x17", "--coarse", "--coarse-grid", "5x5"]) == 0
    _, _, info = read_csv(first / "info.csv")
    assert info.shape == (5, 3) and np.all(info[:, 1:] == 0.0)
    kept, empty = (2, 3) if c_plus else (3, 2)  # W_pp, W_mm columns
    for name in ("wigner_t1e-06.csv", "wigner_coarse_t1e-06.csv"):
        _, _, rows = read_csv(first / name)
        assert np.max(rows[:, kept]) > 0.0, name
        assert np.all(rows[:, [empty, 4, 5]] == 0.0), name
    outputs = sorted(first.iterdir())
    for source in outputs:
        again = tmp_path / f"replay-{source.name}"
        command = source.stem.split("_")[0]
        assert run_cli([command, "--config", str(source), "--out", str(again)]) == 0
        for path in again.iterdir():
            assert path.read_bytes() == (first / path.name).read_bytes(), (source.name, path.name)


@pytest.mark.parametrize("weights", [None, (1.0, 0.0)], ids=["default", "up"])
def test_wigner_writes_no_negative_zero(tmp_path, silver_config, run_cli, weights):
    # an underflowed W_pm keeps the sign of its phase: at 3e-6 s for the
    # default state, and on every cell for a pure spin state
    cfg = silver_config
    if weights is not None:
        cfg = _weighted_config(tmp_path, c_plus=complex(weights[0]), c_minus=complex(weights[1]))
    first = tmp_path / "first"
    assert run_cli(["wigner", "--config", cfg, "--out", str(first), "--t", "3e-06",
                    "--grid", "64x64"]) == 0
    path = first / "wigner_t3e-06.csv"
    fields = [value for line in path.read_text(encoding="utf-8").splitlines()
              if not line.startswith("#") for value in line.split(",")]
    assert len(fields) == 7 * (64 * 64 + 1)
    assert "-0" not in fields
    again = tmp_path / "again"
    assert run_cli(["wigner", "--config", str(path), "--out", str(again)]) == 0
    assert (again / path.name).read_bytes() == path.read_bytes()


_MIRROR_RUNS = (
    ["entropy", "--t1", "2e-6", "--points", "40"],
    ["info", "--points", "12"],
    ["density", "--points", "201"],
    # odd grids put nodes at p = 0 and within a width of p = ±Ft, so every
    # block is nonzero somewhere and no swap passes on zeros alone
    ["wigner", "--t", "1e-06", "--grid", "21x21", "--coarse", "--coarse-grid", "9x9"],
    ["wigner", "--t", "3e-05", "--grid", "21x21", "--coarse", "--coarse-grid", "9x9"],
    ["verify", "--n", "2048", "--t-list", "2e-8,2e-7"],
)


def test_reversed_force_mirrors_every_output(tmp_path, run_cli, read_csv, silver):
    # F -> -F with equal weights swaps the branches: φ₊ takes φ₋'s place, so
    # the + and - columns trade places and W₊₋ turns into its conjugate
    out = {}
    for sign in (1, -1):
        cfg = _weighted_config(tmp_path, force=sign * silver.force)
        out[sign] = tmp_path / f"force{sign:+d}"
        for argv in _MIRROR_RUNS:
            assert run_cli([*argv, "--config", cfg, "--out", str(out[sign])]) == 0, argv
    names = sorted(path.name for path in out[1].iterdir())
    assert names == sorted(path.name for path in out[-1].iterdir())
    assert len(names) == 8  # entropy, info, density, verify and four wigner files
    for name in names:
        head_up, cols, up = read_csv(out[1] / name)
        head_down, _, down = read_csv(out[-1] / name)
        assert np.all(np.any(up != 0.0, axis=0)), name
        assert [h for h in head_up if "force_N" not in h] == \
               [h for h in head_down if "force_N" not in h], name
        swap = {"rho_plus": "rho_minus", "W_pp": "W_mm", "l2_err_plus": "l2_err_minus"}
        swap.update({b: a for a, b in swap.items()})
        want = up[:, [cols.index(swap.get(c, c)) for c in cols]]
        if "Im_W_pm" in cols:
            want[:, cols.index("Im_W_pm")] *= -1.0
        if name == "info.csv":
            # H integrates P·(prior - entropy) with the branches' roles
            # swapped, so it rounds apart at the scale of its ln 2 ceiling
            # (one ulp, 1.6e-16 of the column's max), not of its own size
            h = cols.index("H")
            np.testing.assert_allclose(down[:, h], want[:, h], rtol=0.0,
                                       atol=1e-15 * np.max(up[:, h]))
            want[:, h] = down[:, h]
        assert np.array_equal(down, want), name


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
    worst = max(orders, key=lambda order: abs(order - 2.0))
    assert f"# observed_convergence_order = {format(worst, '.17g')}" in header
    assert worst != max(convergence[1], key=lambda order: abs(order - 2.0))


def test_default_verify_takes_640_strang_steps(tmp_path, run_cli, monkeypatch):
    # 64 + 64 + 64 steps for the three default rows, then the 64 + 128 + 256
    # of the convergence study: one call per Strang step, both rows at once
    shapes = []
    step = sg.oracle.step_split_operator

    def counted(state, dt):
        shapes.append(state.psi.shape)
        return step(state, dt)

    monkeypatch.setattr(sg.oracle, "step_split_operator", counted)
    assert run_cli(["verify", "--out", str(tmp_path)]) == 0
    assert len(shapes) == 640
    assert set(shapes) == {(2, 4096)}


def test_verify_reports_the_strang_phase_it_divided_out(tmp_path, run_cli, read_csv,
                                                        silver, scales, units):
    # the largest phase is the 0.01 tau2 row's a^2 t dt^2/24 (scaled), at
    # dt = t/64; the line is a diagnostic, so a replay ignores it and writes
    # the same bytes
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(["verify", "--out", str(first)]) == 0
    header, _, rows = read_csv(first / "verify.csv")
    [line] = [h for h in header if h.startswith("# strang_phase_max = ")]
    a, ts = silver.accel / units.accel, rows[-1, 0] / units.time
    assert rows[-1, 0] == pytest.approx(0.01 * scales.tau2, rel=1e-15)
    want = a**2 * ts * (ts / 64.0) ** 2 / 24.0
    assert float(line.partition("=")[2]) == pytest.approx(want, rel=1e-12)
    assert np.all(rows[:, 1:3] < 1e-13)
    assert run_cli(["verify", "--config", str(first / "verify.csv"), "--out", str(again)]) == 0
    assert (again / "verify.csv").read_bytes() == (first / "verify.csv").read_bytes()


def test_verify_takes_a_zero_time(tmp_path, run_cli, read_csv):
    # t = 0 takes no Strang step: the row compares the sampled initial packet
    # with the closed form, and the default dt it is given is never used
    assert run_cli(["verify", "--out", str(tmp_path), "--t-list", "0,1e-08",
                    "--n", "2048"]) == 0
    _, _, rows = read_csv(tmp_path / "verify.csv")
    assert rows[0, 0] == 0.0
    assert np.all(rows[0, 1:3] < 1e-15)
    assert rows[0, 3] == 0.0 and rows[0, 4] == 0.0
    assert np.all(rows[1, 1:3] < 1e-13)


@pytest.mark.parametrize("coarse_dt", ["0", "1"])
def test_verify_replays_a_file_with_the_retired_coarse_dt_line(tmp_path, run_cli, coarse_dt):
    # verify.csv files written while verify had --coarse-dt carry its header
    # line; the setting is gone, so the line is ignored and the replay
    # writes what a fresh run writes
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(["verify", "--out", str(first), "--t-list", "1e-08,2e-08",
                    "--n", "2048"]) == 0
    fresh = (first / "verify.csv").read_text(encoding="utf-8")
    old = tmp_path / "old.csv"
    old.write_text(fresh.replace("# half_width = 10\n",
                                 f"# half_width = 10\n# coarse_dt = {coarse_dt}\n"),
                   encoding="utf-8")
    assert f"# coarse_dt = {coarse_dt}" in old.read_text(encoding="utf-8")
    assert run_cli(["verify", "--config", str(old), "--out", str(again)]) == 0
    assert (again / "verify.csv").read_text(encoding="utf-8") == fresh


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
    """The seven CSV columns of every cell, q-major, straight from the field;
    W_pm's -0.0 reads as 0.0, the value the writer gives it."""
    return [(field.q[i], field.p[j], field.w_pp[i, j], field.w_mm[i, j],
             field.w_pm[i, j].real + 0.0, field.w_pm[i, j].imag + 0.0, proj[i, j])
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
    # +0 runs, which the writer copies unformatted: row 0 is +0 in every
    # column; row 1 has dead runs at its start, middle and end around a
    # single live cell and a live pair holding a NaN; row 2 holds a -0.0 in
    # W_pp, W_mm and proj inside zero runs, and both rows a W_pm of
    # complex(-0.0, -0.0), which writes 0,0 and stays in its run
    zeros = np.zeros((3, 12))
    w_pp, w_mm, zero_proj = zeros.copy(), zeros.copy(), zeros.copy()
    w_pm = zeros.astype(complex)
    w_mm[1, 3] = 0.25
    zero_proj[1, 7], w_pp[1, 8] = np.nan, -1e-300
    w_pp[2, 2], w_mm[2, 5], zero_proj[2, 9] = -0.0, -0.0, -0.0
    w_pm[1, 5] = w_pm[2, 10] = complex(-0.0, -0.0)
    zero_field = dataclasses.replace(
        field, q=np.array([-1e-7, 0.0, 1e-7]), p=np.linspace(-2e-28, 2e-28, 12),
        w_pp=w_pp, w_mm=w_mm, w_pm=w_pm)
    x = np.linspace(-1e-5, 1e-5, 9)
    scalars = list(zip(x, np.exp(-x * x / 1e-11), np.float64(1) / 3 - x))
    wigner_columns = sg.WIGNER_CSV_HEADER + ",W_proj_x"
    cases = [
        (cli._write_csv, edge, "a,b,c,d,e", edge),
        (cli._write_lines, cli._wigner_lines(field.p, [(field, proj)]), wigner_columns,
         _wigner_rows(field, proj)),
        (cli._write_lines, cli._wigner_lines(edge_field.p, [(edge_field, edge_proj)]),
         wigner_columns, _wigner_rows(edge_field, edge_proj)),
        (cli._write_lines, cli._wigner_lines(zero_field.p, [(zero_field, zero_proj)]),
         wigner_columns, _wigner_rows(zero_field, zero_proj)),
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
                "--half-width", "12"],
               ["# t_list_s = 1e-08,2.2752358511326858e-07", "# n_grid = 2048",
                "# half_width = 12"], 0),
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
    "verify": ["--t-list", "--n", "--half-width"],
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


@pytest.mark.parametrize("field, value, check", [
    pytest.param("l2_err_plus", math.nan, "closed_form_l2", id="l2_err_plus-closed_form_l2"),
    pytest.param("l2_err_minus", math.nan, "closed_form_l2", id="l2_err_minus-closed_form_l2"),
    pytest.param("overlap_dev", math.nan, "overlap", id="overlap_dev-overlap"),
    pytest.param("norm_drift", math.nan, "norm_drift", id="norm_drift-norm_drift"),
    # finite values just past cli._TOL_L2, _TOL_OVERLAP and _TOL_NORM_DRIFT
    pytest.param("l2_err_plus", 2e-6, "closed_form_l2", id="l2_err_plus-finite"),
    pytest.param("overlap_dev", 2e-9, "overlap", id="overlap_dev-finite"),
    pytest.param("norm_drift", 2e-12, "norm_drift", id="norm_drift-finite"),
])
def test_verify_fails_on_a_nan_check_value(tmp_path, run_cli, capsys, monkeypatch, field, value,
                                          check):
    real = cli.verify_closed_forms

    def breach_in_last_row(params, times, **kwargs):
        report = real(params, times, **kwargs)
        if times[0] != 2e-08:
            return report
        return dataclasses.replace(report, rows=tuple(
            dataclasses.replace(row, **{field: value}) for row in report.rows))

    monkeypatch.setattr(cli, "verify_closed_forms", breach_in_last_row)
    # the breach sits in the last row, where a plain max() would pass over a NaN
    assert run_cli(["verify", "--out", str(tmp_path), "--t-list", "1e-08,2e-08",
                    "--n", "2048"]) == 3
    assert f"verify: FAIL {check}:" in capsys.readouterr().err


@pytest.mark.parametrize("orders", [(2.0, 2.7), (2.0, math.nan)], ids=["off-2", "nan"])
def test_verify_checks_every_convergence_order(tmp_path, run_cli, read_csv, capsys, monkeypatch,
                                               orders):
    # the worst order is checked and written, not the smallest
    monkeypatch.setattr(cli, "convergence_order", lambda *a, **kw: ([1e-9, 2.5e-10, 6e-11],
                                                                   list(orders)))
    assert run_cli(["verify", "--out", str(tmp_path), "--t-list", "1e-08", "--n", "2048"]) == 3
    assert "verify: FAIL convergence_order:" in capsys.readouterr().err
    header, _, _ = read_csv(tmp_path / "verify.csv")
    assert f"# observed_convergence_order = {format(orders[1], '.17g')}" in header


def test_verify_undersampled_grid_names_the_momentum_it_needs(tmp_path, run_cli, capsys, silver):
    # the bound is the kick plus six momentum widths of the spread packet,
    # k_max = a t + 6 sqrt(1 + t^2) (scaled), not the kick F t alone
    assert run_cli(["verify", "--t-list", "1e-09", "--n", "16", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    units = sg.UnitSystem.for_params(silver)
    ts = 1e-9 / units.time
    k_max = abs(silver.accel / units.accel) * ts + 6.0 * math.sqrt(1.0 + ts**2)
    assert f"undersamples momentum {k_max * units.momentum:.3e} kg m/s" in err
    assert "undersamples momentum 6.337e-28 kg m/s" in err
    assert f"{abs(silver.force) * 1e-9:.3e}" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_verify_grid_below_16_points_names_the_count(tmp_path, run_cli, capsys):
    # the parser refuses what make_grid_state would, before any resolution check
    assert run_cli(["verify", "--n", "8", "--t-list", "1e-08", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "argument --n: invalid count value: '8'" in err and "undersamples" not in err
    assert not list(tmp_path.glob("*.csv"))
