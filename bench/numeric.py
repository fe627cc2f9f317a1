"""The wigner-numeric workload: one process of in-process library calls.

At one probe time t each grid is evaluated with
`wigner_field(..., method="analytic")` and `method="numeric"`:

- grid_a: acceptance test 4's 64x64 grid, q in +-(10 sigma + a t^2/2) and
  p in +-10(hbar/sigma + F t).  Its values are ~1e-53/hbar (the grid does
  not resolve the state), so it is timed and described but not compared.
- window_plus: 64x64 around the + branch peak (<q+>, F t), +-6 marginal
  widths in q and p, so the sampled integral of W is |c+|^2.
- window_cross: 64x64 around the interference term at (0, 0), with
  dq = fringe spacing / 4 and p over +-6 momentum widths.

Every grid is built here from the parameters and t, not from library
defaults.  The timings and the raw values the checks need are written as
JSON; the thresholds live in run.py.

    python3 bench/numeric.py --t 1e-05 --out RESULT.json [--spans SPANS.json]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import time

N_GRID = 64
WINDOW_WIDTHS = 6.0


def _grids(params, t, np):
    sigma, hbar = params.sigma, params.hbar
    accel, force = abs(params.accel), abs(params.force)
    tau2 = params.mass * sigma**2 / hbar
    q_half = 10.0 * sigma + 0.5 * accel * t * t
    p_half = 10.0 * (hbar / sigma + force * t)
    # marginal widths of one in-field branch and its mean position and kick
    width_q = sigma / math.sqrt(2.0) * math.sqrt(1.0 + (t / tau2) ** 2)
    width_p = hbar / (math.sqrt(2.0) * sigma)
    q_plus, p_plus = 0.5 * accel * t * t, force * t
    fringe = hbar / (2.0 * force * t)
    span_q, span_p = WINDOW_WIDTHS * width_q, WINDOW_WIDTHS * width_p
    return {
        "grid_a": (np.linspace(-q_half, q_half, N_GRID),
                   np.linspace(-p_half, p_half, N_GRID)),
        "window_plus": (np.linspace(q_plus - span_q, q_plus + span_q, N_GRID),
                        np.linspace(p_plus - span_p, p_plus + span_p, N_GRID)),
        "window_cross": (0.25 * fringe * (np.arange(N_GRID) - 0.5 * (N_GRID - 1)),
                         np.linspace(-span_p, span_p, N_GRID)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t", type=float, required=True, help="probe time, s")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--spans", help="record spans and write them here")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer("wigner-numeric")
        tracer.install()

    import numpy as np
    from sgcoarse import dynamics, phase_space
    from sgcoarse.core import PhysicalParams

    params = PhysicalParams.silver()
    state = dynamics.evolve_in_field(params, args.t)
    result = {"ops": {}}
    try:
        for name, (q, p) in _grids(params, args.t, np).items():
            span = tracer.span(f"bench.{name}") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                analytic = phase_space.wigner_field(state, q, p, method="analytic")
                numeric = phase_space.wigner_field(state, q, p, method="numeric")
            seconds = time.perf_counter() - start
            pairs = ("++", "--", "+-")
            peak = max(float(np.max(np.abs(analytic.block(k)))) for k in pairs)
            dev = max(float(np.max(np.abs(analytic.block(k) - numeric.block(k))))
                      for k in pairs)
            diag = analytic.w_pp + analytic.w_mm
            mass = float(np.trapezoid(np.trapezoid(diag, x=p, axis=1), x=q))
            result["ops"][name] = {
                "seconds": seconds,
                "peak_hbar": peak * params.hbar,
                "max_dev_hbar": dev * params.hbar,
                "sampled_mass": mass,
                "weight_plus": abs(params.c_plus) ** 2,
            }
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
