"""Benchmark of the sgcoarse CLI and library, run from a source checkout.

    python3 bench/run.py --workload figures --seed 0 --seconds 15 --trace 0

Workloads (see bench/README.md for why each was chosen):

- figures: the CLI as a user runs it for the paper's plots, each
  subcommand in a fresh process with its inputs pinned as flags, then every
  output replayed from its own header and compared byte for byte.
- verify: `sgcoarse verify` at the three standard probe times.
- wigner-numeric: analytic and numeric Wigner transforms of one state on
  acceptance test 4's grid and on two windows that resolve the state.

One closed-loop client: one child process at a time, each waited for
before the next starts.  A run sets up a fresh interpreter several times
(`setup_s`, median), then repeats whole passes of the workload until
about `--seconds` of passes have been measured (at least one pass; a
figures or wigner-numeric pass outlasts 15 s, so those make one).  Every
output is checked; a failed check counts the operation as failed.  The
number of values behind each median is printed on standard error.

With `--trace 1` each pass is run once untraced and once with spans
recorded by tracer.py, and the per-layer metrics are printed instead of
the end-to-end ones.  The last line of standard output is the JSON
result; host details go to standard error.

The seed picks one of SEED_VARIANTS probe-time variants: every time
input is multiplied by 1 + SEED_STEP * (seed mod SEED_VARIANTS).  Seed 0
gives the canonical times.  reference.json holds the output summaries of
each variant, recorded with record_reference.py.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
WORK_DIR_NAME = ".bench_work"

SEED_VARIANTS = 4
SEED_STEP = 1e-3

# Derived timescales of the silver parameter set, pinned so that the verify
# probe times (0.1 tau3, tau3, 0.01 tau2) do not follow a later change to
# the parameters or to derive_scales.
TAU2_S = 0.0016973713607216568
TAU3_S = 2.2752358511326858e-07

# Coarse pixel of the figures workload: CoarsePixelSpec.default() today,
# Delta = 1 um and an area of 100 Planck cells, pinned for the same reason.
PIXEL_DELTA_M = 1e-06
PIXEL_DELTA_KGM_S = 6.62607014594008e-26

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0  # no pass starts that is expected to end after this

# Output checks.  Reference summaries match within REFERENCE_RTOL of the
# column's scale: its max-abs value, times the row count for sums.
REFERENCE_RTOL = 1e-9
INFO_BOUND_TOL = 1e-12  # H <= S_ent + this, per row
COARSE_OFFDIAG_RATIO = 1e-3  # late coarse |W+-| below this share of the diagonal peak
VERIFY_L2_MAX = 1e-6
VERIFY_OVERLAP_MAX = 1e-9
VERIFY_NORM_DRIFT_MAX = 1e-12
WINDOW_DEV_RATIO = 1e-6  # max |numeric - analytic| over the window peak
WINDOW_PEAK_HBAR_MIN = 0.1
WINDOW_MASS_TOL = 1e-6

SETUP_CODE = (
    "import sgcoarse.cli\n"
    "from sgcoarse.core import PhysicalParams, derive_scales\n"
    "derive_scales(PhysicalParams.silver())\n"
)

HOST_CODE = r"""
import ctypes, glob, json, os, platform, sys
import numpy, scipy
import sgcoarse.cli
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "nproc": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "openblas_threads": threads,
    "sgcoarse": os.path.dirname(sgcoarse.__file__),
}))
"""

# name, unit -- printed with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit -- printed with --trace 1; zero where a workload has no such work
PER_LAYER = (
    ("entropy_s", "s"),
    ("density_s", "s"),
    ("info_s", "s"),
    ("wigner_early_s", "s"),
    ("wigner_late_s", "s"),
    ("replay_s", "s"),
    ("verify_s", "s"),
    ("numeric_acceptance_s", "s"),
    ("numeric_resolved_s", "s"),
    ("diag.numeric_acceptance_peak_hbar", "1"),
    ("diag.numeric_acceptance_mass", "1"),
    ("failed_frac", "1"),
    ("import.total_s", "s"),
    ("import.scipy_s", "s"),
    ("import.sgcoarse_self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.replay_self_s", "s"),
    ("cli.rows_written", "count"),
    ("cli.bytes_written", "bytes"),
    ("cli.write_mb_per_s", "MB/s"),
    ("core.self_s", "s"),
    ("dynamics.self_s", "s"),
    ("dynamics.evolve_in_field_calls", "count"),
    ("phase_space.self_s", "s"),
    ("phase_space.wigner_analytic_s", "s"),
    ("phase_space.wigner_analytic_cells", "count"),
    ("phase_space.project_spin_s", "s"),
    ("phase_space.coarse_grain_s", "s"),
    ("phase_space.coarse_cells", "count"),
    ("phase_space.coarse_live_frac", "1"),
    ("phase_space.wigner_numeric_s", "s"),
    ("phase_space.density_grid_s", "s"),
    ("phase_space.rho_points", "count"),
    ("phase_space.numeric_macs", "count"),
    ("numerics.self_s", "s"),
    ("numerics.osc_gauss_window_calls", "count"),
    ("numerics.osc_gauss_window_s", "s"),
    ("numerics.real_quad_calls", "count"),
    ("numerics.real_quad_s", "s"),
    ("information.self_s", "s"),
    ("information.information_series_s", "s"),
    ("information.mean_information_calls", "count"),
    ("information.entanglement_series_s", "s"),
    ("oracle.self_s", "s"),
    ("oracle.verify_closed_forms_s", "s"),
    ("oracle.convergence_order_s", "s"),
    ("oracle.strang_steps", "count"),
    ("oracle.step_us", "us"),
    ("oracle.fft_points", "count"),
    ("trace.run_s", "s"),
    ("trace.untimed_s", "s"),
    ("trace.overhead_frac", "1"),
)

# stage times and grid_a diagnostics, taken from the untraced passes
STAGE_METRICS = tuple(name for name, _ in PER_LAYER
                      if ("." not in name or name.startswith("diag.")) and name != "failed_frac")

LAYERS = ("cli", "core", "dynamics", "phase_space", "numerics", "information", "oracle")


def fmt(value: float) -> str:
    """Shortest text that reads back as exactly this double."""
    return repr(float(value))


def probe_factor(seed: int) -> float:
    return 1.0 + SEED_STEP * (seed % SEED_VARIANTS)


# ---------------------------------------------------------------------------
# child processes


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


@dataclass
class Child:
    code: int
    seconds: float
    rss_mb: float
    log_path: str


class Runner:
    """Starts one child at a time from the checkout root and reaps it with
    wait4, which gives that child's own peak RSS."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # cache bytecode in the checkout, as an installed package would
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._logs = 0

    def python(self, *args: str) -> Child:
        self._logs += 1
        log_path = os.path.join(self.work, f"child{self._logs}.log")
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, seconds, usage.ru_maxrss / 1024.0, log_path)

    def cli(self, args: list[str], spans: str | None, run_id: str) -> Child:
        if spans is None:
            return self.python("-m", "sgcoarse.cli", *args)
        return self.python(os.path.join(BENCH_DIR, "tracer.py"), spans, run_id, "--", *args)


def report_failure(what: str, detail: str, child: Child | None = None) -> None:
    print(f"FAILED {what}: {detail}", file=sys.stderr)
    if child is not None:
        with open(child.log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(tail, file=sys.stderr)


# ---------------------------------------------------------------------------
# output summaries and checks


def read_csv(path: str) -> dict[str, list[float]]:
    """Columns of a CLI output, header lines skipped."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    start = 0
    while text.startswith("#", start):
        start = text.index("\n", start) + 1
    end = text.index("\n", start)
    names = text[start:end].split(",")
    values = list(map(float, text[end + 1:].replace("\n", ",").rstrip(",").split(",")))
    if len(values) % len(names):
        raise ValueError(f"{path}: ragged rows")
    return {name: values[k::len(names)] for k, name in enumerate(names)}


def summarize(columns: dict[str, list[float]]) -> dict:
    return {
        "rows": len(next(iter(columns.values()))),
        "sum": {k: math.fsum(v) for k, v in columns.items()},
        "maxabs": {k: max(abs(x) for x in v) for k, v in columns.items()},
    }


def compare_summary(got: dict, ref: dict) -> list[str]:
    problems = []
    if got["rows"] != ref["rows"] or set(got["sum"]) != set(ref["sum"]):
        return [f"shape {got['rows']} rows {sorted(got['sum'])}, "
                f"expected {ref['rows']} rows {sorted(ref['sum'])}"]
    for name, scale in ref["maxabs"].items():
        tol_max = REFERENCE_RTOL * scale
        tol_sum = tol_max * ref["rows"]
        if abs(got["maxabs"][name] - scale) > tol_max:
            problems.append(f"max|{name}| {got['maxabs'][name]!r} vs {scale!r}")
        if abs(got["sum"][name] - ref["sum"][name]) > tol_sum:
            problems.append(f"sum {name} {got['sum'][name]!r} vs {ref['sum'][name]!r}")
    return problems


def invariant_problems(stage: str, name: str, columns: dict[str, list[float]]) -> list[str]:
    """Acceptance invariants that apply to one output file."""
    if stage == "entropy":
        if columns["t"][0] != 0.0 or columns["S_ent"][0] != 0.0:
            return [f"S_ent(0) = {columns['S_ent'][0]!r} at t = {columns['t'][0]!r}"]
    if stage == "info":
        worst = max(h - s for h, s in zip(columns["H"], columns["S_ent"]))
        if worst > INFO_BOUND_TOL:
            return [f"H exceeds S_ent by {worst!r}"]
    if stage == "wigner_late" and name.startswith("wigner_coarse"):
        diag = max(max(map(abs, columns["W_pp"])), max(map(abs, columns["W_mm"])))
        off = max(math.hypot(r, i) for r, i in zip(columns["Re_W_pm"], columns["Im_W_pm"]))
        if not off < COARSE_OFFDIAG_RATIO * diag:
            return [f"coarse |W+-| {off!r} not below {COARSE_OFFDIAG_RATIO} x {diag!r}"]
    return []


def output_stats(directory: str) -> tuple[int, int]:
    """Data rows and bytes of every CSV the CLI wrote into a directory."""
    rows = size = 0
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        size += os.path.getsize(path)
        with open(path, "rb") as fh:
            rows += sum(1 for line in fh if not line.startswith(b"#")) - 1
    return rows, size


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    seconds: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    span_files: list[str] = field(default_factory=list)
    replay_ids: set[str] = field(default_factory=set)
    rows_written: int = 0
    bytes_written: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    def took(self, child: Child) -> Child:
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        return child

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def figures_commands(seed: int) -> tuple[tuple[str, list[str]], ...]:
    """(stage, CLI arguments) of the figures workload, today's defaults pinned."""
    f = probe_factor(seed)
    wigner = ["--grid", "512x512", "--coarse", "--coarse-grid", "128x128",
              "--pixels", f"{fmt(PIXEL_DELTA_M)},{fmt(PIXEL_DELTA_KGM_S)}"]
    return (
        ("entropy", ["entropy", "--t0", "0", "--t1", fmt(2e-6 * f), "--points", "400"]),
        ("density", ["density", "--t", fmt(2.25e-5 * f), "--points", "2001"]),
        ("info", ["info", "--t0", "0", "--t1", fmt(5e-5 * f), "--points", "200"]),
        ("wigner_early", ["wigner", "--t", fmt(1e-6 * f), *wigner]),
        ("wigner_late", ["wigner", "--t", fmt(3e-5 * f), *wigner]),
    )


class Figures:
    """CLI subcommands with pinned flags, then a replay of each output."""

    def __init__(self, seed: int, reference: dict):
        self.commands = figures_commands(seed)
        self.reference = reference["variants"][str(seed % SEED_VARIANTS)]

    def run_pass(self, runner: Runner, pass_dir: str, trace: bool) -> Pass:
        result = Pass()
        children = {}
        start = time.perf_counter()
        for stage, args in self.commands:
            out = os.path.join(pass_dir, stage)
            spans = os.path.join(pass_dir, f"{stage}.spans.json") if trace else None
            children[stage] = result.took(runner.cli(args + ["--out", out], spans, stage))
            result.stages[f"{stage}_s"] = children[stage].seconds
        replays = {}
        for stage, args in self.commands:
            out = os.path.join(pass_dir, stage)
            primary = self.primary_output(out)
            if primary is None:
                continue
            run_id = f"{stage}.replay"
            spans = os.path.join(pass_dir, f"{run_id}.spans.json") if trace else None
            replay_args = [args[0], "--config", primary, "--out", out + ".replay"]
            replays[stage] = result.took(runner.cli(replay_args, spans, run_id))
            result.replay_ids.add(run_id)
        result.seconds = time.perf_counter() - start
        result.stages["replay_s"] = sum(c.seconds for c in replays.values())
        if trace:
            result.span_files = sorted(
                os.path.join(pass_dir, n) for n in os.listdir(pass_dir) if n.endswith(".spans.json"))

        for stage, _ in self.commands:
            out = os.path.join(pass_dir, stage)
            result.op(self.check_outputs(stage, out, children[stage]))
            result.op(self.check_replay(stage, out, replays.get(stage)))
            if os.path.isdir(out):
                rows, size = output_stats(out)
                result.rows_written += rows
                result.bytes_written += size
        return result

    @staticmethod
    def primary_output(out: str) -> str | None:
        if not os.path.isdir(out):
            return None
        names = sorted(n for n in os.listdir(out) if not n.startswith("wigner_coarse"))
        return os.path.join(out, names[0]) if names else None

    def check_outputs(self, stage: str, out: str, child: Child) -> bool:
        if child.code != 0 or not os.path.isdir(out):
            report_failure(stage, f"exit code {child.code}", child)
            return False
        names = sorted(os.listdir(out))
        expected = sorted(k.split("/", 1)[1] for k in self.reference if k.startswith(stage + "/"))
        if names != expected:
            report_failure(stage, f"wrote {names}, expected {expected}")
            return False
        ok = True
        for name in names:
            columns = read_csv(os.path.join(out, name))
            problems = compare_summary(summarize(columns), self.reference[f"{stage}/{name}"])
            problems += invariant_problems(stage, name, columns)
            for problem in problems:
                report_failure(f"{stage}/{name}", problem)
            ok = ok and not problems
        return ok

    @staticmethod
    def check_replay(stage: str, out: str, child: Child | None) -> bool:
        if child is None or child.code != 0:
            report_failure(f"{stage} replay", "did not run" if child is None
                           else f"exit code {child.code}", child)
            return False
        names = sorted(os.listdir(out))
        _, mismatch, errors = filecmp.cmpfiles(out, out + ".replay", names, shallow=False)
        if mismatch or errors or sorted(os.listdir(out + ".replay")) != names:
            report_failure(f"{stage} replay", f"differs in {mismatch + errors}")
            return False
        return True


class Verify:
    """`sgcoarse verify` at 0.1 tau3, tau3 and 0.01 tau2."""

    def __init__(self, seed: int, reference: dict):
        f = probe_factor(seed)
        times = ",".join(fmt(t * f) for t in (0.1 * TAU3_S, TAU3_S, 0.01 * TAU2_S))
        self.args = ["verify", "--n", "4096", "--half-width", "10", "--t-list", times]

    def run_pass(self, runner: Runner, pass_dir: str, trace: bool) -> Pass:
        result = Pass()
        out = os.path.join(pass_dir, "verify")
        spans = os.path.join(pass_dir, "verify.spans.json") if trace else None
        start = time.perf_counter()
        child = result.took(runner.cli(self.args + ["--out", out], spans, "verify"))
        result.seconds = time.perf_counter() - start
        result.stages["verify_s"] = child.seconds
        if trace:
            result.span_files = [spans]
        result.op(self.check(child, out))
        if child.code == 0:
            result.rows_written, result.bytes_written = output_stats(out)
        return result

    @staticmethod
    def check(child: Child, out: str) -> bool:
        if child.code != 0:
            report_failure("verify", f"exit code {child.code}", child)
            return False
        cols = read_csv(os.path.join(out, "verify.csv"))
        l2 = max(cols["l2_err_plus"] + cols["l2_err_minus"])
        problems = []
        if len(cols["t"]) != 3:
            problems.append(f"{len(cols['t'])} rows, expected 3")
        if not l2 < VERIFY_L2_MAX:
            problems.append(f"relative L2 {l2!r}")
        if not max(cols["overlap_dev"]) < VERIFY_OVERLAP_MAX:
            problems.append(f"overlap deviation {max(cols['overlap_dev'])!r}")
        if not max(cols["norm_drift"]) < VERIFY_NORM_DRIFT_MAX:
            problems.append(f"norm drift {max(cols['norm_drift'])!r}")
        for problem in problems:
            report_failure("verify.csv", problem)
        return not problems


class WignerNumeric:
    """numeric.py in one fresh process per pass."""

    OPS = ("grid_a", "window_plus", "window_cross")

    def __init__(self, seed: int, reference: dict):
        self.t = fmt(1e-5 * probe_factor(seed))

    def run_pass(self, runner: Runner, pass_dir: str, trace: bool) -> Pass:
        result = Pass()
        os.makedirs(pass_dir, exist_ok=True)
        out = os.path.join(pass_dir, "numeric.json")
        args = [os.path.join(BENCH_DIR, "numeric.py"), "--t", self.t, "--out", out]
        if trace:
            spans = os.path.join(pass_dir, "numeric.spans.json")
            args += ["--spans", spans]
            result.span_files = [spans]
        start = time.perf_counter()
        child = result.took(runner.python(*args))
        result.seconds = time.perf_counter() - start
        ops = {}
        if child.code != 0:
            report_failure("wigner-numeric", f"exit code {child.code}", child)
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                ops = json.load(fh)["ops"]
        for name in self.OPS:
            result.op(child.code == 0 and name in ops and self.check(name, ops[name]))
        if child.code == 0 and set(ops) == set(self.OPS):
            result.stages["numeric_acceptance_s"] = ops["grid_a"]["seconds"]
            result.stages["numeric_resolved_s"] = (
                ops["window_plus"]["seconds"] + ops["window_cross"]["seconds"])
            # grid_a does not resolve the state: recorded, never gated
            result.stages["diag.numeric_acceptance_peak_hbar"] = ops["grid_a"]["peak_hbar"]
            result.stages["diag.numeric_acceptance_mass"] = ops["grid_a"]["sampled_mass"]
        return result

    @staticmethod
    def check(name: str, op: dict) -> bool:
        if name == "grid_a":
            return True
        problems = []
        if not op["max_dev_hbar"] <= WINDOW_DEV_RATIO * op["peak_hbar"]:
            problems.append(f"max |numeric - analytic| hbar {op['max_dev_hbar']!r} "
                            f"over peak hbar {op['peak_hbar']!r}")
        if not op["peak_hbar"] >= WINDOW_PEAK_HBAR_MIN:
            problems.append(f"peak hbar {op['peak_hbar']!r} below {WINDOW_PEAK_HBAR_MIN}")
        if name == "window_plus" and not abs(op["sampled_mass"] - op["weight_plus"]) <= WINDOW_MASS_TOL:
            problems.append(f"sampled mass {op['sampled_mass']!r} vs {op['weight_plus']!r}")
        for problem in problems:
            report_failure(f"wigner-numeric {name}", problem)
        return not problems


WORKLOADS = {"figures": Figures, "verify": Verify, "wigner-numeric": WignerNumeric}


# ---------------------------------------------------------------------------
# per-layer metrics


def import_profile(runner: Runner) -> dict[str, float]:
    """Import times of `import sgcoarse.cli` from python -X importtime."""
    child = runner.python("-X", "importtime", "-c", "import sgcoarse.cli")
    if child.code != 0:
        raise RuntimeError(f"import failed, see {child.log_path}")
    with open(child.log_path, encoding="utf-8") as fh:
        lines = [line for line in fh
                 if line.startswith("import time:") and "self [us]" not in line]
    total = scipy = sgcoarse_self = 0.0
    scipy_level = None
    # importtime lists a module after its imports; reversed, every module
    # comes before the modules it imported, one indent level deeper
    for line in reversed(lines):
        self_us, cumulative_us, name = line[len("import time:"):].rstrip("\n").split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        if scipy_level is not None and level > scipy_level:
            continue
        scipy_level = None
        if level == 0:
            total += int(cumulative_us)
        if name == "scipy" or name.startswith("scipy."):
            scipy += int(cumulative_us)
            scipy_level = level
        if name.startswith("sgcoarse"):
            sgcoarse_self += int(self_us)
    return {"import.total_s": total * 1e-6, "import.scipy_s": scipy * 1e-6,
            "import.sgcoarse_self_s": sgcoarse_self * 1e-6}


def layer_metrics(traced: Pass, plain: Pass) -> dict[str, float]:
    """Per-layer times and counts from one traced pass's span files."""
    inclusive = defaultdict(float)
    calls = Counter()
    counts = Counter()
    self_time = defaultdict(float)
    cli_self = {False: 0.0, True: 0.0}
    for path in traced.span_files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        replay = doc["run_id"] in traced.replay_ids
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent, counters), below in zip(spans, child_time):
            layer = name.split(".", 1)[0]
            inclusive[name] += end - start
            calls[name] += 1
            self_time[layer] += end - start - below
            if layer == "cli":
                cli_self[replay] += end - start - below
            for key, value in (counters or {}).items():
                counts[f"{name}.{key}"] += value

    cells = counts["phase_space.coarse_grain.cells"]
    steps = calls["oracle.step_split_operator"]
    m = {
        "cli.self_s": cli_self[False],
        "cli.replay_self_s": cli_self[True],
        "cli.rows_written": traced.rows_written,
        "cli.bytes_written": traced.bytes_written,
        "cli.write_mb_per_s": traced.bytes_written / 1e6 / cli_self[False] if cli_self[False] else 0.0,
        "dynamics.evolve_in_field_calls": calls["dynamics.evolve_in_field"],
        "phase_space.wigner_analytic_s": inclusive["phase_space.wigner_analytic"],
        "phase_space.wigner_analytic_cells": counts["phase_space.wigner_analytic.cells"],
        "phase_space.project_spin_s": inclusive["phase_space.project_spin"],
        "phase_space.coarse_grain_s": inclusive["phase_space.coarse_grain"],
        "phase_space.coarse_cells": cells,
        "phase_space.coarse_live_frac": counts["phase_space.coarse_grain.live"] / cells if cells else 0.0,
        "phase_space.wigner_numeric_s": inclusive["phase_space.wigner_numeric"],
        "phase_space.density_grid_s": inclusive["phase_space.density_grid"],
        "phase_space.rho_points": counts["phase_space.density_grid.rho_points"],
        "phase_space.numeric_macs": counts["phase_space.wigner_numeric.macs"],
        "numerics.osc_gauss_window_calls": calls["numerics.osc_gauss_window"],
        "numerics.osc_gauss_window_s": inclusive["numerics.osc_gauss_window"],
        "numerics.real_quad_calls": calls["numerics.real_quad"],
        "numerics.real_quad_s": inclusive["numerics.real_quad"],
        "information.information_series_s": inclusive["information.information_series"],
        "information.mean_information_calls": calls["information.mean_information"],
        "information.entanglement_series_s": inclusive["information.entanglement_series"],
        "oracle.verify_closed_forms_s": inclusive["oracle.verify_closed_forms"],
        "oracle.convergence_order_s": inclusive["oracle.convergence_order"],
        "oracle.strang_steps": steps,
        "oracle.step_us": inclusive["oracle.step_split_operator"] / steps * 1e6 if steps else 0.0,
        "oracle.fft_points": counts["oracle.step_split_operator.fft_points"],
        "trace.run_s": traced.seconds,
        "trace.untimed_s": traced.seconds - sum(self_time[layer] for layer in LAYERS),
        "trace.overhead_frac": (traced.seconds - plain.seconds) / plain.seconds,
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = self_time[layer]
    return m


# ---------------------------------------------------------------------------
# main


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d.get(key, 0.0) for d in dicts)


def time_setup(runner: Runner) -> float:
    child = runner.python("-c", SETUP_CODE)
    if child.code != 0:
        raise RuntimeError(f"setup failed with exit code {child.code}, see {child.log_path}")
    return child.seconds


def probe_host(runner: Runner) -> dict:
    child = runner.python("-c", HOST_CODE)
    with open(child.log_path, encoding="utf-8") as fh:
        text = fh.read()
    if child.code != 0:
        raise RuntimeError(f"cannot import sgcoarse from src/:\n{text}")
    return json.loads(text.strip().splitlines()[-1])


def run_passes(workload, runner: Runner, work: str, seconds: float, trace: bool, started: float):
    """Passes until about `seconds` of them are measured, at least one.  No
    pass starts that would overshoot by more than half its length, so a run
    stays near `seconds` whatever one pass costs.  In trace mode each
    untraced pass is followed by a traced one."""
    plain, traced = [], []
    measured = 0.0
    while True:
        pass_dir = os.path.join(work, f"pass{len(plain) + len(traced)}")
        plain.append(workload.run_pass(runner, pass_dir, trace=False))
        shutil.rmtree(pass_dir, ignore_errors=True)
        measured += plain[-1].seconds
        if trace:
            pass_dir = os.path.join(work, f"pass{len(plain) + len(traced)}")
            traced.append(workload.run_pass(runner, pass_dir, trace=True))
            traced[-1].layers = layer_metrics(traced[-1], plain[-1])
            shutil.rmtree(pass_dir, ignore_errors=True)
        next_pass = plain[-1].seconds * (2.0 if trace else 1.0)
        if (measured + 0.5 * plain[-1].seconds >= seconds
                or time.perf_counter() - started + next_pass > RUN_BUDGET_S):
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sgcoarse", "cli.py")):
        print("bench: run from the root of an sgcoarse checkout (src/sgcoarse missing)",
              file=sys.stderr)
        return 2
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)

    work = os.path.join(root, WORK_DIR_NAME)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(root, work)
        host = probe_host(runner)
        if os.path.realpath(host["sgcoarse"]) != os.path.realpath(os.path.join(root, "src", "sgcoarse")):
            print(f"bench: sgcoarse imported from {host['sgcoarse']}, not src/", file=sys.stderr)
            return 2
        print("host: " + json.dumps(host), file=sys.stderr)
        workload = WORKLOADS[args.workload](args.seed, reference)
        if args.trace:
            imports = [import_profile(runner) for _ in range(IMPORTTIME_REPEATS)]
            plain, traced = run_passes(workload, runner, work, args.seconds, True, started)
        else:
            setups = [time_setup(runner) for _ in range(SETUP_REPEATS)]
            plain, traced = run_passes(workload, runner, work, args.seconds, False, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        values = {name: median_of([p.stages for p in plain], name)
                  for name in STAGE_METRICS}
        values.update({key: median_of(imports, key) for key in imports[0]})
        values.update({key: median_of([p.layers for p in traced], key) for key in traced[0].layers})
        values["failed_frac"] = failed / attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        samples = {"import.*": len(imports), "stage and diag.*": len(plain),
                   "span metrics": len(traced)}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(p.seconds for p in plain),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        samples = {"setup_s": len(setups), "run_s": len(plain), "peak_rss_mb": len(plain)}
        print("passes: " + json.dumps([p.stages for p in plain]), file=sys.stderr)
    print("samples (values each median is taken over): " + json.dumps(samples), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
