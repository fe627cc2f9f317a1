"""Batch experiment runner: reproducible CSV series and phase-space grids.

One subcommand per standard plot: entropy (entanglement rise), density
(separated packets), wigner (fine and coarse phase-space grids), info
(mean information per event), verify (grid integrator vs closed forms).

Every output starts with '#'-prefixed header lines echoing the tool
version and the fully resolved configuration.  Rerunning a subcommand
with --config pointing at one of its own outputs reproduces the CSV body
byte for byte: numbers are serialized with 17 significant digits, and no
timestamps or environment state enter the files.  Another subcommand's
output supplies only its physical parameters.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
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
from .oracle import (DEFAULT_GRID_POINTS, DEFAULT_HALF_WIDTH, OracleReport, convergence_order,
                     default_dt, verify_closed_forms)
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
_Q_BLOCK = 32  # q rows of the fine Wigner grid evaluated and written at a time


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
    parameters (known config keys) and subcommand settings, the
    'command' line among them.  main applies the settings only when that
    line names the running subcommand; for any other subcommand the file
    supplies just the physical parameters.  Reading stops at the first
    line that is not a '#' line, so the data body is never read.
    Anything else is parsed as a plain key = value config file, which
    has no settings.
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


def _echo(value) -> str:
    """A setting as its header line writes it."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, tuple):
        return "%dx%d" % value
    return str(value)


def _header(command: str, params: PhysicalParams, settings: dict, columns: str) -> list[str]:
    lines = [f"# {_TOOL} {VERSION}", f"# command = {command}"]
    for key, value in settings.items():
        lines.append(f"# {key} = {_echo(value)}")
    for key, value in params_to_entries(params).items():
        lines.append(f"# {key} = {_fmt(value)}")
    lines.append(f"# columns: {columns}")
    return lines


def _write_lines(path: str, header: list[str], column_row: str, lines) -> None:
    """Write the header, the column row, then the body lines, streamed."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(column_row + "\n")
        fh.writelines(lines)
    print(f"wrote {path}")


def _write_csv(path: str, header: list[str], column_row: str, rows) -> None:
    """Write the header, the column row, then one line per row tuple, each
    value at 17 significant digits as _fmt writes it; rows are streamed."""
    row_fmt = ",".join(["%.17g"] * len(column_row.split(","))) + "\n"
    _write_lines(path, header, column_row, map(row_fmt.__mod__, rows))


def _cmd_entropy(out: str, params: PhysicalParams, s: dict) -> int:
    times = np.linspace(s["t_start_s"], s["t_stop_s"], s["points"])
    series = entanglement_series(derive_scales(params), times, params)
    header = _header("entropy", params, s, "t [s], A [1], S_ent [nat]")
    rows = zip(series.times, series.A_values, series.S_ent)
    _write_csv(os.path.join(out, "entropy.csv"), header, "t,A,S_ent", rows)
    return 0


def _cmd_density(out: str, params: PhysicalParams, s: dict) -> int:
    state = evolve_in_field(params, s["t_s"])
    x, _ = default_phase_space_grid(params, s["t_s"], s["points"], 2)
    rho_p = state.density("+", x)
    rho_m = state.density("-", x)
    header = _header(
        "density", params, s,
        "x [m], rho_plus [1/m], rho_minus [1/m], rho_total [1/m]",
    )
    rows = zip(x, rho_p, rho_m, rho_p + rho_m)
    _write_csv(os.path.join(out, "density.csv"), header,
               "x,rho_plus,rho_minus,rho_total", rows)
    return 0


def _wigner_lines(p, blocks):
    """q-major CSV lines (q, p, W_pp, W_mm, Re W_pm, Im W_pm, W_proj_x) of
    (field, proj) blocks of q rows on the momentum axis p.  Every value
    reads as _fmt writes it; each p is formatted once per grid and each q
    once per row, so only the five W columns are formatted per cell.  An
    underflowed W_pm keeps the sign of its phase; adding 0.0 writes it as
    0, not -0, and leaves every other value as it is.

    A cell whose five W values are all +0.0 needs no formatting: each
    maximal run of such cells in a q row is written as one string of
    "q,p,0,0,0,0,0" lines.  The test is on the bits, not on == 0, so a
    -0.0 (written -0) or a NaN keeps its cell formatted."""
    cell_fmt = "%s%s" + ",".join(["%.17g"] * 5) + "\n"
    p_text = [_fmt(v) + "," for v in p.tolist()]
    zero_tail = [text + "0,0,0,0,0\n" for text in p_text]
    for field, proj in blocks:
        w_pm = field.w_pm + 0.0
        columns = (field.w_pp, field.w_mm, w_pm.real, w_pm.imag, proj)
        live = np.logical_or.reduce([c.view(np.uint64) != 0 for c in columns])
        for i, q in enumerate(field.q.tolist()):
            q_text = _fmt(q) + ","
            row = live[i]
            cuts = [0, *(np.flatnonzero(row[1:] != row[:-1]) + 1).tolist(), row.size]
            alive = bool(row[0])
            for a, b in zip(cuts, cuts[1:]):
                if alive:
                    yield from map(cell_fmt.__mod__, zip(
                        itertools.repeat(q_text), p_text[a:b],
                        *(c[i, a:b].tolist() for c in columns)))
                else:
                    yield q_text + q_text.join(zero_tail[a:b])
                alive = not alive


def _projected(field):
    return field, project_spin_direction(field, (1.0, 0.0, 0.0))


def _fine_blocks(state, q, p):
    """The analytic field and its x projection, _Q_BLOCK q rows at a time."""
    for start in range(0, q.size, _Q_BLOCK):
        yield _projected(wigner_field(state, q[start:start + _Q_BLOCK], p, method="analytic"))


def _cmd_wigner(out: str, params: PhysicalParams, s: dict) -> int:
    pixels = s.pop("pixels")
    if pixels is not None:
        s["coarse"] = True
        s["Delta_m"], s["delta_kgm_s"] = pixels
    grids = [("wigner", s["grid"], None)]
    if s["coarse"]:
        spec = CoarsePixelSpec(Delta=s["Delta_m"], delta=s["delta_kgm_s"])
        grids.append(("wigner_coarse", s["coarse_grid"], spec))
    else:  # a fine-only header carries no pixel settings
        for key in ("Delta_m", "delta_kgm_s", "coarse_grid"):
            del s[key]

    for t in [1e-6, 30e-6] if s["t_s"] is None else [s["t_s"]]:
        s["t_s"] = t
        header = _header(
            "wigner", params, s,
            "q [m], p [kg m/s], W_pp W_mm Re_W_pm Im_W_pm W_proj_x [1/(J s)]",
        )
        state = evolve_in_field(params, t)
        for name, (n_q, n_p), spec in grids:
            q, p = default_phase_space_grid(params, t, n_q, n_p)
            if spec is None:
                blocks = _fine_blocks(state, q, p)
            else:
                field = wigner_field(state, q, p, method="analytic")
                blocks = [_projected(coarse_grain(field, spec))]
            _write_lines(os.path.join(out, f"{name}_t{t:g}.csv"), header,
                         WIGNER_CSV_HEADER + ",W_proj_x", _wigner_lines(p, blocks))
    return 0


def _cmd_info(out: str, params: PhysicalParams, s: dict) -> int:
    times = np.linspace(s["t_start_s"], s["t_stop_s"], s["points"])
    times, H, S = information_series(params, times)
    header = _header("info", params, s, "t [s], H [nat], S_ent [nat]")
    _write_csv(os.path.join(out, "info.csv"), header, "t,H,S_ent",
               zip(times, H, S))
    return 0


def _cmd_verify(out: str, params: PhysicalParams, s: dict) -> int:
    scales = derive_scales(params)
    if s["t_list_s"] is None:
        probes = (0.1 * scales.tau3, scales.tau3, 0.01 * scales.tau2)
        s["t_list_s"] = ",".join(_fmt(t) for t in probes)
    t_list = [_finite(v) for v in s["t_list_s"].split(",") if v.strip()]
    if not t_list:
        raise ValueError(f"t_list_s names no time: {s['t_list_s']!r}")
    n, half_width = s["n_grid"], s["half_width"]

    rows = []
    for t in t_list:
        dt = default_dt(params, t)
        rows.extend(verify_closed_forms(params, [t], dt=dt, n=n, half_width=half_width).rows)
    _, orders = convergence_order(params, scales.tau3, n=n, half_width=half_width)
    # the order farthest from 2; np.argmax picks the first NaN, which fails the check
    order = orders[int(np.argmax(np.abs(np.subtract(orders, 2.0))))]

    s["observed_convergence_order"] = order
    s["strang_phase_max"] = max(r.strang_phase for r in rows)  # rad, divided out of the L2 columns
    header = _header(
        "verify", params, s,
        "t [s], l2_err_plus [1], l2_err_minus [1], overlap_dev [1], norm_drift [1]",
    )
    _write_csv(
        os.path.join(out, "verify.csv"), header,
        "t,l2_err_plus,l2_err_minus,overlap_dev,norm_drift",
        ((r.t, r.l2_err_plus, r.l2_err_minus, r.overlap_dev, r.norm_drift) for r in rows),
    )

    # each check is written so that a NaN fails it
    failures = []
    report = OracleReport(n, tuple(rows))
    max_l2 = report.max_l2
    max_ov = report.max_overlap_dev
    max_nd = report.max_norm_drift
    if not (max_l2 <= _TOL_L2):
        failures.append(("closed_form_l2", f"max relative L2 error {max_l2:.3e} exceeds {_TOL_L2:g}"))
    if not (max_ov <= _TOL_OVERLAP):
        failures.append(("overlap", f"max overlap deviation {max_ov:.3e} exceeds {_TOL_OVERLAP:g}"))
    if not (max_nd <= _TOL_NORM_DRIFT):
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


def _count(minimum: int):
    """A parser of whole counts no smaller than minimum."""
    def count(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise ValueError(f"count must be at least {minimum}, got {n}")
        return n
    return count


def _finite(text: str) -> float:
    """A float setting; inf and nan are refused before any sweep is built."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {text!r}")
    return value


def _grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"grid must look like 512x512, got {text!r}")
    n_q, n_p = map(_count(2), parts)
    return n_q, n_p


def _pixels(text: str) -> tuple[float, float]:
    delta_m, delta_p = text.split(",")
    return _finite(delta_m), _finite(delta_p)


def _bool(text: str) -> bool:
    return text == "1"


# Each subcommand's settings, declared once: the parser, the flag > header >
# default order and the header echo are all made from this table.  Each
# subcommand: (handler, help, settings), one row per setting:
#     (flag, header key, parser, default[, help])
# The flag is None for a setting that only a header gives; the header key
# is also the flag's dest.  The parser reads the flag's or the header's
# text, and a _bool flag takes no value.  A None default is worked out by
# the handler.
_COMMANDS = {
    "entropy": (_cmd_entropy, "entanglement entropy sweep -> entropy.csv", (
        ("--t0", "t_start_s", _finite, 0.0),
        ("--t1", "t_stop_s", _finite, 2e-6),
        ("--points", "points", _count(1), 400),
    )),
    "density": (_cmd_density, "position densities at one time -> density.csv", (
        ("--t", "t_s", _finite, 22.5e-6),
        ("--points", "points", _count(1), 2001),
    )),
    "wigner": (_cmd_wigner, "Wigner matrix grid(s) -> wigner_t*.csv", (
        ("--t", "t_s", _finite, None, "single time (default: 1e-6 and 30e-6 s)"),
        ("--grid", "grid", _grid, (512, 512), "fine grid, e.g. 512x512"),
        ("--pixels", "pixels", _pixels, None,
         "coarse pixel spec DELTA_m,delta_kgm_s (implies --coarse)"),
        ("--coarse", "coarse", _bool, False,
         "also write the pixel-averaged grid (default pixel spec)"),
        (None, "Delta_m", _finite, CoarsePixelSpec.default().Delta),
        (None, "delta_kgm_s", _finite, CoarsePixelSpec.default().delta),
        ("--coarse-grid", "coarse_grid", _grid, (128, 128), "coarse grid, e.g. 128x128"),
    )),
    "info": (_cmd_info, "mean information per event sweep -> info.csv", (
        ("--t0", "t_start_s", _finite, 0.0),
        ("--t1", "t_stop_s", _finite, 5e-5),
        ("--points", "points", _count(1), 200),
    )),
    "verify": (_cmd_verify, "grid integrator vs closed forms -> verify.csv", (
        ("--t-list", "t_list_s", str, None, "comma-separated times in s"),
        ("--n", "n_grid", _count(16), DEFAULT_GRID_POINTS,
         f"grid points (default {DEFAULT_GRID_POINTS})"),
        ("--half-width", "half_width", _finite, DEFAULT_HALF_WIDTH),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="config file or a previous output CSV")
    common.add_argument("--out", default=".", help="output directory (default: .)")

    parser = _Parser(prog=_TOOL, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{_TOOL} {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, rows) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for flag, key, kind, _, *help_flag in rows:
            if flag is None:
                continue
            kw = dict(action="store_const", const=True) if kind is _bool else dict(type=kind)
            p.add_argument(flag, dest=key, help=help_flag[0] if help_flag else None, **kw)
    return parser


def _settings(rows, args, header: dict[str, str]) -> dict:
    """Each setting from its flag, else from the header, else its default."""
    settings = {}
    for _, key, kind, default, *_ in rows:
        value = getattr(args, key, None)
        if value is None:
            value = kind(header[key]) if key in header else default
        settings[key] = value
    return settings


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            params, header = _load_config(args.config)
        else:
            params, header = PhysicalParams.silver(), {}
    except OSError as exc:
        print(f"{_TOOL}: cannot read config: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"{_TOOL}: bad config: {exc}", file=sys.stderr)
        return 1
    if header.get("command") != args.command:
        header = {}  # another subcommand's settings do not apply here

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"{_TOOL}: cannot create output directory: {exc}", file=sys.stderr)
        return 2

    handler, _, rows = _COMMANDS[args.command]
    try:
        return handler(args.out, params, _settings(rows, args, header))
    except OSError as exc:
        print(f"{_TOOL}: I/O error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{_TOOL}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
