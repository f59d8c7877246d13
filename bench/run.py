"""telegate benchmark: time to a verdict, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_k1 --seed 1 --seconds 30 --trace 0

Each workload is a single-threaded closed loop: the next op starts when
the previous one has finished.  Every op's output is checked against an
answer fixed when its input was generated.  After every untraced op the
benchmark times a calibration kernel of its own, and reports op time as a
multiple of it (see ``Calibration``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes a separate traced run (see
``tracing.py``) and prints the per-layer metrics.  Standard output ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment, sample counts and a digest of the
JSON reports.  Workload choices and predictions are in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "op_cost_p50": "cal",
    "op_cost_p75": "cal",
    "ops_per_cal": "1/cal",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Spans whose call counts and inclusive times are reported per traced op.
_CALLS = (
    "executor.run_branches", "protocol.validate_locality", "qsim.apply_unitary",
    "qsim.measure_z", "qsim.controlled", "qsim.tensor", "qsim.fidelity",
    "executor.ChoiMatrix",
)
_MS = (
    "executor.run_branches", "protocol.validate_locality", "qsim.apply_unitary",
    "qsim.measure_z", "qsim.controlled", "executor.channel_choi", "executor.unitary_choi",
    "executor.ChoiMatrix", "executor.branch_density", "executor.choi_distance", "cli.main",
    "gatelang.parse", "gatelang.evaluate", "protocol.parse_program", "verifier.to_json",
    "builder.build_program", "builder.build_specification", "verifier.probe_states",
)
_CHOI = ("executor.channel_choi", "executor.unitary_choi", "executor.choi_distance")

PER_LAYER = {
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"{name}.ms": "ms" for name in _MS},
    "executor.run_branches.branches": "count",
    "verifier.verify_program.self_ms": "ms",
    "qsim.tensor.max_qubits": "qubits",
    "qsim.measure_z.pruned_mass": "prob",
    "cli.interpreter.ms": "ms",
    "cli.import.ms": "ms",
    "trace.overhead_ms": "ms",
    "share.choi": "ratio",
    "share.run_branches": "ratio",
    "share.cli_startup": "ratio",
}

SETUP_REPEATS = 5
CAL_WINDOW = 2  # an op's calibration is the median of the 2 * 2 + 1 nearest
DIGEST_OPS = 50  # reports hashed per run: a fixed prefix, so runs compare
CHOI_K4_BYTES = 1024 * 1024 * 16  # one dense complex128 Choi matrix at k=4


class SetupError(RuntimeError):
    """The checkout cannot run this benchmark."""


def load_telegate():
    """Import ``telegate`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "telegate" / "__init__.py").is_file():
        raise SetupError(f"no telegate package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "telegate" or m.startswith("telegate.")]:
        del sys.modules[name]
    return importlib.import_module("telegate")


def _call(fn, *args):
    """``(result, None)``, or ``(None, problem)`` if ``fn`` raised: an op
    that raises is a failed op, and the run goes on."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


class Stats:
    def __init__(self):
        self.samples: list[float] = []  # untraced op seconds
        self.cal: list[float] = []  # calibration seconds, one after each untraced op
        self.traced: list[float] = []  # traced op seconds
        self.reference: list[float] = []  # the untraced twin of a traced op
        self.startup: dict[str, list[float]] = {"cli.interpreter": [], "cli.import": []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def record(self, i: int, problem: str | None, report: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {i}: {problem}")
        if report is not None and self.digest_ops < DIGEST_OPS:
            self.digest.update(report.encode())
            self.digest_ops += 1


class Calibration:
    """A fixed kernel that runs no telegate code, timed after every op.

    Other tenants' load on a shared host switches op time between levels
    up to 1.8x apart for seconds at a time, and process CPU time moves
    with wall time, so there is no stolen time to subtract.  Over ten
    runs of the same code, the run medians of raw op time spread past 25%
    (first to third quartile, as a share of the median).  The load slows a kernel of the same kind by about the same factor, so an
    op's cost, its wall time over the nearby kernel times, holds within a
    few percent.  Each workload uses the kernel that resembles its
    dominant cost:

    * ``python``: 2x2 gates on a 6-qubit state vector, then every
      single-qubit measurement split, like branch enumeration;
    * ``lapack``: ``eigvalsh`` of a fixed 512x512 Hermitian matrix, like
      the Choi positivity check;
    * ``process``: ``python -c "import numpy"`` in a subprocess, like CLI
      start-up.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "python":
            self.gates = [
                (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0], t % 6)
                for t in range(24)
            ]
            self.run = self._python
        elif kind == "lapack":
            m = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
            self.herm = m + m.conj().T
            self.run = self._lapack
        elif kind == "process":
            self.run = self._process
        else:
            raise ValueError(kind)

    def _python(self) -> None:
        for _ in range(2):
            psi = np.zeros((2,) * 6, dtype=np.complex128)
            psi[(0,) * 6] = 1
            for u, t in self.gates:
                psi = np.moveaxis(np.tensordot(u, np.moveaxis(psi, t, 0), axes=1), 0, t)
            amps = np.asarray(psi, dtype=np.complex128).reshape(-1).copy()
            if not np.isfinite(amps.view(np.float64)).all():
                raise ArithmeticError("calibration state is not finite")
            norm = float(np.linalg.norm(amps))
            branches = []
            for q in range(6):
                part = np.moveaxis(amps.reshape((2,) * 6), q, 0)
                for bit in (0, 1):
                    half = part[bit]
                    branches.append((q, bit, float(np.linalg.norm(half) ** 2),
                                     np.kron(half.reshape(-1)[:4], [1, 0])))
            abs(np.vdot(amps, amps)) / norm

    def _lapack(self) -> None:
        np.linalg.eigvalsh(self.herm)

    @staticmethod
    def _process() -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


class LibraryWorkload:
    """Library ``verify_program`` on seeded k-qubit targets."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, k: int, pool: int, named: bool, warmup: int, calibration: str = "python"):
        self.k, self.pool, self.named, self.warmup = k, pool, named, warmup
        self.calibration = Calibration(calibration)

    def setup(self, seed: int) -> None:
        self.tg = load_telegate()
        rng = np.random.default_rng(seed)
        self.items = wl.library_items(self.tg, self.k, self.pool, self.named, rng)
        for i in range(self.warmup):
            _call(self.run, i)

    def prepare_trace(self) -> None:
        pass

    def run(self, i: int) -> str:
        return wl.library_op(self.tg, self.items[i % len(self.items)], i)

    def _finish(self, i: int, stats: Stats, out, error) -> None:
        item = self.items[i % len(self.items)]
        if error is None:
            problem, error = _call(wl.check_report, out, item.verdict, item.census)
            error = error or problem
        stats.record(i, error, out)

    def step(self, i: int, stats: Stats) -> float:
        t0 = time.perf_counter()
        out, error = _call(self.run, i)
        t1 = time.perf_counter()
        stats.samples.append(t1 - t0)
        self._finish(i, stats, out, error)
        return time.perf_counter() - t1

    def traced_step(self, i: int, stats: Stats, tracer: tracing.Tracer) -> float:
        """Even ops run untraced and odd ops traced, so the two interleave."""
        if i % 2 == 0:
            spent = self.step(i, stats)
            stats.reference.append(stats.samples[-1])
            return spent
        with tracer.installed():
            t0 = time.perf_counter()
            out, error = _call(self.run, i)
            t1 = time.perf_counter()
        stats.traced.append(t1 - t0)
        self._finish(i, stats, out, error)
        return time.perf_counter() - t1


class CliWorkload:
    """``python -m telegate.cli`` subprocesses over a round-robin command list."""

    rusage = resource.RUSAGE_CHILDREN
    calibration = Calibration("process")

    def setup(self, seed: int) -> None:
        for path in ("src/telegate/cli.py", "demos/nonlocal_cnot.tg", "demos/bad_crossparty.tg"):
            if not (ROOT / path).is_file():
                raise SetupError(f"missing {path}")
        self.commands = wl.cli_commands(ROOT, np.random.default_rng(seed))
        wl.run_cli(ROOT, self.commands[0].argv)  # fills the bytecode cache

    def prepare_trace(self) -> None:
        load_telegate()
        self.cli = importlib.import_module("telegate.cli")

    def step(self, i: int, stats: Stats) -> float:
        command = self.commands[i % len(self.commands)]
        t0 = time.perf_counter()
        result, error = _call(wl.run_cli, ROOT, command.argv)
        t1 = time.perf_counter()
        stats.samples.append(t1 - t0)
        self._finish(i, stats, command, result, error)
        return time.perf_counter() - t1

    def _finish(self, i, stats, command, result, error) -> None:
        if error is None:
            problem, error = _call(wl.check_cli, command, result)
            error = error or problem
        report = result.stdout if command.is_report and result is not None else None
        stats.record(i, error, report)

    def _main(self, argv) -> wl.CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return wl.CliResult(code, out.getvalue(), err.getvalue())

    def traced_step(self, i: int, stats: Stats, tracer: tracing.Tracer) -> float:
        """The untraced subprocess op, then its parts: interpreter start,
        package import, and ``cli.main`` in process, untraced and traced."""
        spent = self.step(i, stats)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        t1 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import telegate.cli"],
            cwd=ROOT, env=wl.cli_env(), check=True, timeout=60,
        )
        t2 = time.perf_counter()
        stats.startup["cli.interpreter"].append(t1 - t0)
        stats.startup["cli.import"].append((t2 - t1) - (t1 - t0))
        command = self.commands[i % len(self.commands)]
        t0 = time.perf_counter()
        result, error = _call(self._main, command.argv)
        stats.reference.append(time.perf_counter() - t0)
        self._finish(i, stats, command, result, error)
        with tracer.installed():
            t0 = time.perf_counter()
            result, error = _call(self._main, command.argv)
            t1 = time.perf_counter()
        stats.traced.append(t1 - t0)
        self._finish(i, stats, command, result, error)
        return spent + (time.perf_counter() - t1)


WORKLOADS = {
    "sweep_k1": lambda: LibraryWorkload(k=1, pool=100, named=True, warmup=10),
    "wide_k4": lambda: LibraryWorkload(k=4, pool=20, named=False, warmup=1, calibration="lapack"),
    "cli_mix": CliWorkload,
}


def percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def op_costs(stats: Stats) -> list[float]:
    """Each op's wall time over the median of the calibrations nearest it."""
    costs = []
    for i, sample in enumerate(stats.samples):
        near = stats.cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
        costs.append(sample / statistics.median(near))
    return costs


def end_to_end(stats: Stats, setup_s: float, rss_kb: int) -> dict:
    costs = op_costs(stats)
    return {
        "op_cost_p50": statistics.median(costs),
        "op_cost_p75": percentile(costs, 75),
        "ops_per_cal": len(costs) / sum(costs),
        "ok_share": (stats.attempted - stats.failed) / stats.attempted,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": setup_s,
    }


def per_layer(stats: Stats, tracer: tracing.Tracer) -> dict:
    n = max(1, len(stats.traced))
    totals = tracer.totals
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def ms(name):
        return totals.get(name, empty)["s"] * 1e3 / n

    def p50_ms(samples):
        return statistics.median(samples) * 1e3 if samples else 0.0

    op_ms = statistics.fmean(stats.traced) * 1e3 if stats.traced else 0.0
    startup_ms = p50_ms(stats.startup["cli.interpreter"]) + p50_ms(stats.startup["cli.import"])
    metrics = {
        **{f"{name}.calls": totals.get(name, empty)["calls"] / n for name in _CALLS},
        **{f"{name}.ms": ms(name) for name in _MS},
        "executor.run_branches.branches": tracer.counts.get("executor.run_branches.branches", 0) / n,
        "verifier.verify_program.self_ms":
            totals.get("verifier.verify_program", empty)["self_s"] * 1e3 / n,
        "qsim.tensor.max_qubits": tracer.counts.get("qsim.tensor.max_qubits", 0),
        "qsim.measure_z.pruned_mass": tracer.counts.get("qsim.measure_z.pruned_mass", 0.0),
        "cli.interpreter.ms": p50_ms(stats.startup["cli.interpreter"]),
        "cli.import.ms": p50_ms(stats.startup["cli.import"]),
        "trace.overhead_ms": p50_ms(stats.traced) - p50_ms(stats.reference),
        "share.choi": sum(ms(name) for name in _CHOI) / op_ms if op_ms else 0.0,
        "share.run_branches": ms("executor.run_branches") / op_ms if op_ms else 0.0,
        "share.cli_startup": startup_ms / p50_ms(stats.samples) if stats.startup["cli.import"] else 0.0,
    }
    return {name: metrics[name] for name in PER_LAYER}


def _blas_threads() -> int | None:
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = None
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        llc = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "choi_k4_bytes": CHOI_K4_BYTES,
        "choi_k4_fits_llc": None if llc is None else CHOI_K4_BYTES <= llc,
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run the timed loop, and return ``(result, info)``."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    stats = Stats()
    tracer = None
    if trace:
        workload.prepare_trace()
        tracer = tracing.Tracer()
    else:
        workload.calibration.run()
    start = time.perf_counter()
    untimed = 0.0  # checking outputs and calibrating
    i = 0
    while time.perf_counter() - start < seconds:
        if trace:
            untimed += workload.traced_step(i, stats, tracer)
        else:
            untimed += workload.step(i, stats)
            t0 = time.perf_counter()
            workload.calibration.run()
            stats.cal.append(time.perf_counter() - t0)
            untimed += stats.cal[-1]
        i += 1
    window_s = time.perf_counter() - start - untimed
    rss_kb = resource.getrusage(workload.rusage).ru_maxrss
    if trace:
        metrics = per_layer(stats, tracer)
        units = PER_LAYER
    else:
        metrics = end_to_end(stats, statistics.median(setups), rss_kb)
        units = END_TO_END
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    p75 = percentile(stats.samples, 75)
    info = {
        "ops_timed": len(stats.samples),
        "ops_traced": len(stats.traced),
        "op_ms_p50": statistics.median(stats.samples) * 1e3,
        "op_ms_p75": p75 * 1e3,
        "ops_per_s": len(stats.samples) / window_s,
        "cal_ms_p50": statistics.median(stats.cal) * 1e3 if stats.cal else None,
        "beyond_p75": sum(s > p75 for s in stats.samples),
        "setup_s_each": setups,
        "report_digest": stats.digest.hexdigest(),
        "reports_digested": stats.digest_ops,
        "absent_spans": tracer.absent if tracer else [],
        "problems": stats.problems,
        "environment": environment(),
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = False  # set-up time must not depend on the environment
    try:
        result, info = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
