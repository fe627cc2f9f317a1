"""Batch experiment runner: reproducible CSV series and phase-space grids.

One subcommand per standard plot: entropy (entanglement rise), density
(separated packets), wigner (fine and coarse phase-space grids), info
(mean information per event), verify (grid integrator vs closed forms).

Every output starts with '#'-prefixed header lines echoing the tool
version and the fully resolved configuration.  Rerunning a subcommand
with --config pointing at one of its own outputs reproduces the CSV body
byte for byte: numbers are serialized with 17 significant digits, and no
timestamps or environment state enter the files.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

import numpy as np

from .core import (
    CONFIG_KEYS,
    VERSION,
    PhysicalParams,
    derive_scales,
    params_from_entries,
    params_to_entries,
    parse_config_text,
)
from .dynamics import evolve_in_field
from .information import entanglement_series, information_series
from .oracle import OracleReport, convergence_order, default_dt, verify_closed_forms
from .phase_space import (
    WIGNER_CSV_HEADER,
    CoarsePixelSpec,
    coarse_grain,
    default_phase_space_grid,
    project_spin_direction,
    wigner_field,
)

_TOOL = "sgcoarse"

# verification tolerances (names appear in failure messages)
_TOL_L2 = 1e-6
_TOL_OVERLAP = 1e-9
_TOL_NORM_DRIFT = 1e-12
_TOL_ORDER = 0.5
_COARSE_DT_FACTOR = 64.0


def _fmt(v) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return format(float(v), ".17g")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the interface contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path: str):
    """Read parameters and run settings from a config file or CSV output.

    A file whose first line is '# sgcoarse <version>' is one of our
    outputs: its '# key = value' header lines are split into physical
    parameters (known config keys) and subcommand settings.  Reading
    stops at the first line that is not a '#' line, so the data body is
    never read.  Anything else is parsed as a plain key = value config
    file.
    """
    with open(path, "rb") as fh:
        first = fh.readline().decode("utf-8")
        if not first.strip().startswith(f"# {_TOOL} "):
            text = first + fh.read().decode("utf-8")
            return params_from_entries(parse_config_text(text)), {}
        header = [first]
        for raw in fh:
            line = raw.decode("utf-8")
            if not line.strip().startswith("#"):
                break
            header.append(line)
    entries: dict[str, float] = {}
    settings: dict[str, str] = {}
    for line in header:
        body = line.strip().lstrip("#").strip()
        key, sep, value = body.partition("=")
        if not sep:
            continue
        key, value = key.strip(), value.strip()
        if key in CONFIG_KEYS:
            entries[key] = float(value)
        else:
            settings[key] = value
    return params_from_entries(entries), settings


def _resolve(args, settings: dict[str, str], key: str, default, cast):
    """Priority: explicit flag > config-file setting > default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in settings:
        return cast(settings[key])
    return default


def _header(command: str, params: PhysicalParams, settings: dict, columns: str) -> list[str]:
    lines = [f"# {_TOOL} {VERSION}", f"# command = {command}"]
    for key, value in settings.items():
        lines.append(f"# {key} = {value}")
    for key, value in params_to_entries(params).items():
        lines.append(f"# {key} = {_fmt(value)}")
    lines.append(f"# columns: {columns}")
    return lines


def _write_csv(path: str, header: list[str], column_row: str, rows) -> None:
    """Write the header, the column row, then one line per row tuple, each
    value at 17 significant digits as _fmt writes it; rows are streamed."""
    row_fmt = ",".join(["%.17g"] * len(column_row.split(","))) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(column_row + "\n")
        fh.writelines(row_fmt % row for row in rows)
    print(f"wrote {path}")


def _cmd_entropy(args, params: PhysicalParams, settings) -> int:
    t0 = _resolve(args, settings, "t_start_s", 0.0, float)
    t1 = _resolve(args, settings, "t_stop_s", 2e-6, float)
    n = _resolve(args, settings, "points", 400, int)
    scales = derive_scales(params)
    series = entanglement_series(scales, np.linspace(t0, t1, n), params)
    echo = {"t_start_s": _fmt(t0), "t_stop_s": _fmt(t1), "points": str(n)}
    header = _header("entropy", params, echo, "t [s], A [1], S_ent [nat]")
    rows = zip(series.times, series.A_values, series.S_ent)
    _write_csv(os.path.join(args.out, "entropy.csv"), header, "t,A,S_ent", rows)
    return 0


def _cmd_density(args, params: PhysicalParams, settings) -> int:
    t = _resolve(args, settings, "t_s", 22.5e-6, float)
    n = _resolve(args, settings, "points", 2001, int)
    state = evolve_in_field(params, t)
    x, _ = default_phase_space_grid(params, t, n, 2)
    rho_p = state.density("+", x)
    rho_m = state.density("-", x)
    echo = {"t_s": _fmt(t), "points": str(n)}
    header = _header(
        "density", params, echo,
        "x [m], rho_plus [1/m], rho_minus [1/m], rho_total [1/m]",
    )
    rows = zip(x, rho_p, rho_m, rho_p + rho_m)
    _write_csv(os.path.join(args.out, "density.csv"), header,
               "x,rho_plus,rho_minus,rho_total", rows)
    return 0


def _wigner_rows(field, proj):
    """q-major (q, p, W_pp, W_mm, Re W_pm, Im W_pm, proj) rows of Python
    floats, converted one q row at a time."""
    p = field.p.tolist()
    for i, q in enumerate(field.q.tolist()):
        w_pm = field.w_pm[i]
        yield from zip(
            itertools.repeat(q), p,
            field.w_pp[i].tolist(), field.w_mm[i].tolist(),
            w_pm.real.tolist(), w_pm.imag.tolist(),
            proj[i].tolist(),
        )


def _cmd_wigner(args, params: PhysicalParams, settings) -> int:
    if args.t is not None:
        times = [args.t]
    elif "t_s" in settings:
        times = [float(settings["t_s"])]
    else:
        times = [1e-6, 30e-6]

    n_q, n_p = _resolve(args, settings, "grid", (512, 512), _parse_grid_str)
    coarse = _resolve(args, settings, "coarse", False, lambda s: s == "1")
    if args.pixels is not None:
        coarse = True
        delta_m, delta_p = args.pixels
    elif "Delta_m" in settings:
        delta_m = float(settings["Delta_m"])
        delta_p = float(settings["delta_kgm_s"])
    else:
        spec = CoarsePixelSpec.default()
        delta_m, delta_p = spec.Delta, spec.delta
    nc_q, nc_p = _resolve(args, settings, "coarse_grid", (128, 128), _parse_grid_str)

    x_hat = (1.0, 0.0, 0.0)
    for t in times:
        state = evolve_in_field(params, t)
        echo = {
            "t_s": _fmt(t),
            "grid": f"{n_q}x{n_p}",
            "coarse": "1" if coarse else "0",
        }
        if coarse:
            echo["Delta_m"] = _fmt(delta_m)
            echo["delta_kgm_s"] = _fmt(delta_p)
            echo["coarse_grid"] = f"{nc_q}x{nc_p}"
        header = _header(
            "wigner", params, echo,
            "q [m], p [kg m/s], W_pp W_mm Re_W_pm Im_W_pm W_proj_x [1/(J s)]",
        )

        q, p = default_phase_space_grid(params, t, n_q, n_p)
        field = wigner_field(state, q, p, method="analytic")
        proj = project_spin_direction(field, x_hat)
        name = f"wigner_t{t:g}.csv"
        _write_csv(os.path.join(args.out, name), header,
                   WIGNER_CSV_HEADER + ",W_proj_x", _wigner_rows(field, proj))

        if coarse:
            q, p = default_phase_space_grid(params, t, nc_q, nc_p)
            fine = wigner_field(state, q, p, method="analytic")
            bar = coarse_grain(fine, CoarsePixelSpec(Delta=delta_m, delta=delta_p))
            proj_bar = project_spin_direction(bar, x_hat)
            name = f"wigner_coarse_t{t:g}.csv"
            _write_csv(os.path.join(args.out, name), header,
                       WIGNER_CSV_HEADER + ",W_proj_x", _wigner_rows(bar, proj_bar))
    return 0


def _cmd_info(args, params: PhysicalParams, settings) -> int:
    t0 = _resolve(args, settings, "t_start_s", 0.0, float)
    t1 = _resolve(args, settings, "t_stop_s", 5e-5, float)
    n = _resolve(args, settings, "points", 200, int)
    times, H, S = information_series(params, np.linspace(t0, t1, n))
    echo = {"t_start_s": _fmt(t0), "t_stop_s": _fmt(t1), "points": str(n)}
    header = _header("info", params, echo, "t [s], H [nat], S_ent [nat]")
    _write_csv(os.path.join(args.out, "info.csv"), header, "t,H,S_ent",
               zip(times, H, S))
    return 0


def _cmd_verify(args, params: PhysicalParams, settings) -> int:
    scales = derive_scales(params)
    default_list = f"{_fmt(0.1 * scales.tau3)},{_fmt(scales.tau3)},{_fmt(0.01 * scales.tau2)}"
    t_list_str = _resolve(args, settings, "t_list_s", default_list, str)
    t_list = [float(v) for v in t_list_str.split(",") if v.strip()]
    n = _resolve(args, settings, "n_grid", 4096, int)
    half_width = _resolve(args, settings, "half_width", 10.0, float)
    coarse_dt = bool(args.coarse_dt) or settings.get("coarse_dt") == "1"
    factor = _COARSE_DT_FACTOR if coarse_dt else 1.0

    rows = []
    for t in t_list:
        dt = default_dt(params, t) * factor
        rows.extend(verify_closed_forms(params, [t], dt=dt, n=n, half_width=half_width).rows)
    _, orders = convergence_order(params, scales.tau3, n=n, half_width=half_width)
    order = min(orders)

    echo = {
        "t_list_s": t_list_str,
        "n_grid": str(n),
        "half_width": _fmt(half_width),
        "coarse_dt": "1" if coarse_dt else "0",
        "observed_convergence_order": _fmt(order),
    }
    header = _header(
        "verify", params, echo,
        "t [s], l2_err_plus [1], l2_err_minus [1], overlap_dev [1], norm_drift [1]",
    )
    _write_csv(
        os.path.join(args.out, "verify.csv"), header,
        "t,l2_err_plus,l2_err_minus,overlap_dev,norm_drift",
        ((r.t, r.l2_err_plus, r.l2_err_minus, r.overlap_dev, r.norm_drift) for r in rows),
    )

    failures = []
    report = OracleReport(params, n, half_width, tuple(rows))
    max_l2 = report.max_l2
    max_ov = report.max_overlap_dev
    max_nd = report.max_norm_drift
    if max_l2 > _TOL_L2:
        detail = f"max relative L2 error {max_l2:.3e} exceeds {_TOL_L2:g}"
        if coarse_dt:
            detail += f" (convergence warning: dt deliberately coarsened x{factor:g})"
        failures.append(("closed_form_l2", detail))
    if max_ov > _TOL_OVERLAP:
        failures.append(("overlap", f"max overlap deviation {max_ov:.3e} exceeds {_TOL_OVERLAP:g}"))
    if max_nd > _TOL_NORM_DRIFT:
        failures.append(("norm_drift", f"max per-step norm drift {max_nd:.3e} exceeds {_TOL_NORM_DRIFT:g}"))
    if not (abs(order - 2.0) <= _TOL_ORDER):
        failures.append(("convergence_order", f"observed order {order:.3f} outside 2.0 +- {_TOL_ORDER:g}"))

    print(f"checks: l2 {max_l2:.3e}  overlap {max_ov:.3e}  "
          f"norm_drift {max_nd:.3e}  order {order:.3f}")
    if failures:
        for name, detail in failures:
            print(f"verify: FAIL {name}: {detail}", file=sys.stderr)
        return 3
    print("verify: all checks passed")
    return 0


def _parse_grid_str(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"grid must look like 512x512, got {text!r}")
    n_q, n_p = int(parts[0]), int(parts[1])
    if n_q < 2 or n_p < 2:
        raise ValueError("grid sizes must be at least 2")
    return n_q, n_p


def _grid_arg(text: str) -> tuple[int, int]:
    try:
        return _parse_grid_str(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _pixels_arg(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"pixels must look like DELTA,delta, got {text!r}")
    try:
        d, dd = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if d <= 0 or dd <= 0:
        raise argparse.ArgumentTypeError("pixel sizes must be positive")
    return d, dd


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="config file or a previous output CSV")
    common.add_argument("--out", default=".", help="output directory (default: .)")

    parser = _Parser(prog=_TOOL, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{_TOOL} {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", parents=[common],
                       help="entanglement entropy sweep -> entropy.csv")
    p.add_argument("--t0", dest="t_start_s", type=float)
    p.add_argument("--t1", dest="t_stop_s", type=float)
    p.add_argument("--points", type=int)

    p = sub.add_parser("density", parents=[common],
                       help="position densities at one time -> density.csv")
    p.add_argument("--t", dest="t_s", type=float)
    p.add_argument("--points", type=int)

    p = sub.add_parser("wigner", parents=[common],
                       help="Wigner matrix grid(s) -> wigner_t*.csv")
    p.add_argument("--t", type=float, help="single time (default: 1e-6 and 30e-6 s)")
    p.add_argument("--grid", dest="grid", type=_grid_arg, help="fine grid, e.g. 512x512")
    p.add_argument("--pixels", type=_pixels_arg,
                   help="coarse pixel spec DELTA_m,delta_kgm_s (implies --coarse)")
    p.add_argument("--coarse", action="store_const", const=True, dest="coarse",
                   help="also write the pixel-averaged grid (default pixel spec)")
    p.add_argument("--coarse-grid", dest="coarse_grid", type=_grid_arg,
                   help="coarse grid, e.g. 128x128")

    p = sub.add_parser("info", parents=[common],
                       help="mean information per event sweep -> info.csv")
    p.add_argument("--t0", dest="t_start_s", type=float)
    p.add_argument("--t1", dest="t_stop_s", type=float)
    p.add_argument("--points", type=int)

    p = sub.add_parser("verify", parents=[common],
                       help="grid integrator vs closed forms -> verify.csv")
    p.add_argument("--t-list", dest="t_list_s", help="comma-separated times in s")
    p.add_argument("--n", dest="n_grid", type=int, help="grid points (default 4096)")
    p.add_argument("--half-width", dest="half_width", type=float)
    p.add_argument("--coarse-dt", action="store_true",
                   help="deliberately coarsen dt to demonstrate the failure path")

    return parser


_COMMANDS = {
    "entropy": _cmd_entropy,
    "density": _cmd_density,
    "wigner": _cmd_wigner,
    "info": _cmd_info,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            params, settings = _load_config(args.config)
        else:
            params, settings = PhysicalParams.silver(), {}
    except OSError as exc:
        print(f"{_TOOL}: cannot read config: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"{_TOOL}: bad config: {exc}", file=sys.stderr)
        return 1

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"{_TOOL}: cannot create output directory: {exc}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](args, params, settings)
    except OSError as exc:
        print(f"{_TOOL}: I/O error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{_TOOL}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
