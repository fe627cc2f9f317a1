"""Span recorder for one benchmark child process.

The package is not instrumented itself.  Instead `Tracer.install` replaces
the public functions each module calls through its own global names (for
example `sgcoarse.cli.coarse_grain` or `sgcoarse.oracle.step_split_operator`)
with wrappers that record a span: name, start, end, parent span and
optional counters computed from the call's arguments and result.  Spans
stay in memory and are written as JSON once, when the process ends.

A span's name is `<layer>.<function>`; the layer is the module that
implements the function.  Self time is a span's duration minus that of its
direct children, so layer self times add up without double counting.

Run a CLI invocation under the tracer with

    python3 bench/tracer.py SPANS.json RUN_ID -- <sgcoarse arguments>

with the package's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

import numpy as np


def _cells(args, kwargs, result):
    q, p = args[1], args[2]
    return {"cells": int(np.size(q)) * int(np.size(p))}


def _coarse_cells(args, kwargs, result):
    live = (result.w_pp != 0) | (result.w_mm != 0) | (result.w_pm != 0)
    return {"cells": int(live.size), "live": int(np.count_nonzero(live))}


def _rho_points(args, kwargs, result):
    return {"rho_points": int(result.x.size)}


def _numeric_macs(args, kwargs, result):
    """Computed multiply-adds of the direct transform: for each q row
    snapped to rho node i, (2m+1) y-samples times n_p momenta times four
    spin pairs, with m = min(i, n-1-i).  Mirrors wigner_numeric's snap."""
    rho, q, p = args[0], args[1], args[2]
    x = rho.x
    qa = np.atleast_1d(np.asarray(q, dtype=float))
    idx = np.clip(np.searchsorted(x, qa), 1, x.size - 1)
    idx = np.where(np.abs(x[idx] - qa) < np.abs(x[idx - 1] - qa), idx, idx - 1)
    m = np.minimum(idx, x.size - 1 - idx)
    return {"macs": int(np.sum(2 * m + 1)) * int(np.size(p)) * 4}


def _fft_points(args, kwargs, result):
    # two branches, one forward and one inverse FFT each
    return {"fft_points": 2 * 2 * int(args[0].x.size)}


# (module, attribute looked up by that module, span name, counter)
HOOKS = (
    ("sgcoarse.cli", "derive_scales", "core.derive_scales", None),
    ("sgcoarse.cli", "params_from_entries", "core.params_from_entries", None),
    ("sgcoarse.cli", "params_to_entries", "core.params_to_entries", None),
    ("sgcoarse.cli", "parse_config_text", "core.parse_config_text", None),
    ("sgcoarse.information", "derive_scales", "core.derive_scales", None),
    ("sgcoarse.cli", "evolve_in_field", "dynamics.evolve_in_field", None),
    ("sgcoarse.information", "evolve_in_field", "dynamics.evolve_in_field", None),
    ("sgcoarse.oracle", "evolve_in_field", "dynamics.evolve_in_field", None),
    ("sgcoarse.cli", "entanglement_series", "information.entanglement_series", None),
    ("sgcoarse.cli", "information_series", "information.information_series", None),
    ("sgcoarse.information", "mean_information", "information.mean_information", None),
    ("sgcoarse.information", "real_quad", "numerics.real_quad", None),
    ("sgcoarse.phase_space", "osc_gauss_window", "numerics.osc_gauss_window", None),
    ("sgcoarse.cli", "wigner_field", "phase_space.wigner_field", None),
    ("sgcoarse.phase_space", "wigner_field", "phase_space.wigner_field", None),
    ("sgcoarse.phase_space", "wigner_analytic", "phase_space.wigner_analytic", _cells),
    ("sgcoarse.phase_space", "wigner_numeric", "phase_space.wigner_numeric", _numeric_macs),
    ("sgcoarse.phase_space", "density_grid_for_wigner", "phase_space.density_grid", _rho_points),
    ("sgcoarse.cli", "coarse_grain", "phase_space.coarse_grain", _coarse_cells),
    ("sgcoarse.cli", "project_spin_direction", "phase_space.project_spin", None),
    ("sgcoarse.cli", "default_phase_space_grid", "phase_space.default_grid", None),
    ("sgcoarse.cli", "verify_closed_forms", "oracle.verify_closed_forms", None),
    ("sgcoarse.cli", "convergence_order", "oracle.convergence_order", None),
    ("sgcoarse.cli", "default_dt", "oracle.default_dt", None),
    ("sgcoarse.oracle", "step_split_operator", "oracle.step_split_operator", _fft_points),
)


class Tracer:
    """In-memory spans of one process, tagged with the caller's run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, counters]
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._begin(name)
        try:
            yield
        finally:
            self._end(record)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(record)
            if counter is not None:
                record[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every hook; importing the modules here keeps import time
        outside all spans."""
        for module_name, attr, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, counter))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json RUN_ID -- <sgcoarse arguments>", file=sys.stderr)
        return 1
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    cli = importlib.import_module("sgcoarse.cli")
    try:
        with tracer.span("cli.main"):
            code = cli.main(cli_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
