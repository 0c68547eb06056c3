"""End-to-end and per-layer benchmark of the entroflow command line.

Run from the repository root:

    python3 benchmarks/run.py --workload ou1d --seed 1 --seconds 40 --trace 0

Without ``--workload`` every workload runs in turn, each printing its own
block of lines, and the last line is one JSON object over all of them.

The harness starts one process at a time (a closed loop with one client;
no workload uses ``--jobs``).  With ``--trace 0`` (tracing off) one
repetition is:

* ``entroflow run`` as a subprocess, through ``child.py time``, which calls
  ``entroflow.cli.main`` with one span around the CLI's ``evolve``:
  ``run_s`` (spawn to exit, artifacts written), ``peak_rss_mb`` (the
  child's own ``ru_maxrss``), ``setup_s`` (spawn to ``evolve`` entry:
  interpreter start, ``import entroflow``, config, ``build_gibbs``,
  ``operator()`` and ``init_state``) and ``steps_per_s`` (steps over the
  ``evolve`` span, snapshot observer included);
* ``entroflow verify`` as a subprocess: ``verify_s``.

With ``--trace 1`` (a separate run) one repetition is an untraced ``run``,
the same ``run`` and ``verify`` under ``child.py trace``, which records a
span around every call into the public functions of each package layer,
and ``python -X importtime -c "import entroflow"``; the per-layer metrics
come from those spans.

Repetitions continue while the next one is expected to end inside
``--seconds``; every metric is the median over the repetitions.  Every
process started against the package is one operation; it fails on a
nonzero exit, a traceback, a ``verify`` FAIL, or a ``run`` whose artifacts
break the paper's guarantees (see ``check_run``).

The harness uses only the standard library; the package under test is
imported only by the processes it starts, each with its BLAS and OpenMP
thread pools set to one thread (see ``THREAD_VARS``).  Generated configs
and all CLI output go to a temporary directory inside this directory,
removed at exit.
With one workload, the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
all of them, ``metrics`` is replaced by ``workloads`` (each workload's own
object) and the counts cover every workload.  The lines before it list
every metric by name and unit, the failure share, and the run environment.
The exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
# every process the harness starts is killed past this many seconds after
# the workload's start, so a run of one workload ends within three minutes
# (a run of all of them within three times that)
DEADLINE_S = 170.0
# Thread-pool sizes given to every process the harness starts.  With the
# library defaults (one thread per CPU) the Jacobi-PCG dot products of the
# 2-d and 3-d grids run on two threads of a two-CPU machine: about twice
# the CPU time for the same or a longer wall time, and any time taken from
# one CPU by another tenant stalls both threads, so the wall times follow
# the host's load rather than the program.  One thread measures the program.
THREAD_VARS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = {
    "run_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
LAYERS = ("config", "potential", "grid", "solver", "analysis", "entropy", "verify", "cli")
PER_LAYER = {
    "import.total_s": ("s", "lower"),
    "import.entropy_s": ("s", "lower"),
    "config.resolve_s": ("s", "lower"),
    "potential.build_s": ("s", "lower"),
    "grid.operator_build_s": ("s", "lower"),
    "grid.nodes": ("count", "lower"),
    "grid.nnz": ("count", "lower"),
    "grid.field_to_csv_s": ("s", "lower"),
    "solver.evolve_s": ("s", "lower"),
    "solver.step_ms_p50": ("ms", "lower"),
    "solver.step_ms_tail": ("ms", "lower"),
    "solver.mass_drift": ("1", "lower"),
    "solver.w_min": ("1", "higher"),
    "analysis.snapshot_ms": ("ms", "lower"),
    "analysis.minimizer_s": ("s", "lower"),
    "analysis.fit_s": ("s", "lower"),
    "entropy.check_assumptions_s": ("s", "lower"),
    "entropy.legendre_conjugate_ms": ("ms", "lower"),
    "verify.run_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}

# Output checks, from the paper's guarantees and the repository's
# acceptance tolerances.
OU_M0 = 0.5            # initial mean offset per axis of the OU workloads
OU_RATE = 2.0          # 2 lambda / tau with lambda = tau = 1
RATE_TOL = 0.05
ENERGY_TOL = 0.02
MASS_DRIFT_MAX = 1e-8
W_MIN_FLOOR = -1e-12


def _config_text(settings: dict) -> str:
    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return f'"{v}"'
        if isinstance(v, list):
            return "[" + ", ".join(repr(x) for x in v) + "]"
        return repr(v)
    return "".join(f"{k} = {fmt(v)}\n" for k, v in settings.items())


def _check_ou(dim: int) -> Callable[[dict], list[str]]:
    def check(summary: dict) -> list[str]:
        problems = []
        rate = summary.get("fitted_rate")
        if rate is None or abs(rate - OU_RATE) > RATE_TOL * OU_RATE:
            problems.append(f"OU fitted_rate {rate} is not within 5% of {OU_RATE}")
        e0, want = summary.get("E_initial"), dim * OU_M0**2 / 2.0
        if e0 is None or abs(e0 - want) > ENERGY_TOL * want:
            problems.append(f"OU E_initial {e0} is not within 2% of {want}")
        return problems
    return check


def _check_guaranteed_rate(summary: dict) -> list[str]:
    rate, theory = summary.get("fitted_rate"), summary.get("lambda_theory")
    if rate is None or theory is None or rate < theory:
        return [f"fitted_rate {rate} is below the guaranteed rate {theory}"]
    return []


def _ou1d_config(work: Path, seed: int) -> Path:
    # the bundled config as is; the seed reaches the CLI as --seed
    return ROOT / "configs" / "ou_shannon.toml"


THREE_ATOMS = "z_1,y,weight\n-0.5,0.2,0.1\n0.0,0.8,0.1\n0.6,0.5,0.1\n"


def _atoms2d_snap_config(work: Path, seed: int) -> Path:
    # configs/atoms2d.toml with a density CSV every 10 records and
    # t_final 2 instead of 5 (2000 steps), so that one run of the benchmark
    # holds several repetitions; the seed moves the initial mean a little
    rng = random.Random(seed)
    (work / "three_atoms.csv").write_text(THREE_ATOMS, encoding="utf-8")
    settings = {
        "dataset": "three_atoms.csv", "z_min": [-1.0], "z_max": [1.0],
        "y_min": 0.0, "y_max": 1.0,
        "activation": "arctan-sigmoid", "loss": "saturating-squared",
        "lambda": 1.0, "tau": 1.0, "entropy.family": "shannon",
        "grid.dim": 2, "grid.lo": [-7.0, -7.0], "grid.hi": [7.0, 7.0], "grid.n": [101, 101],
        "solver.dt": 1e-3, "solver.t_final": 2.0, "solver.scheme": "implicit-euler",
        "solver.record_every": 10, "solver.linear_tol": 1e-12,
        "initial.kind": "gaussian",
        "initial.mean": [0.25 + rng.uniform(-0.05, 0.05) for _ in range(2)],
        "initial.stdev": 1.0,
        "normalize_gamma": True, "seed": seed,
        # 201 records, one density CSV every 10 of them: 21 files
        "output.snapshot_every": 10,
    }
    path = work / "atoms2d_snap.toml"
    path.write_text(_config_text(settings), encoding="utf-8")
    return path


def _ou3d_cn_config(work: Path, seed: int) -> Path:
    # 150 steps rather than 300 for the same reason as atoms2d_snap
    rng = random.Random(seed)
    settings = {
        "lambda": 1.0, "tau": 1.0, "entropy.family": "shannon",
        "grid.dim": 3, "grid.lo": [-6.0] * 3, "grid.hi": [6.0] * 3, "grid.n": [41] * 3,
        "solver.dt": 1e-2, "solver.t_final": 1.5, "solver.scheme": "crank-nicolson",
        "solver.record_every": 3, "solver.linear_tol": 1e-12,
        "initial.kind": "gaussian",
        # the sign of each axis offset comes from the seed; the box is
        # symmetric, so every choice is the same amount of work
        "initial.mean": [rng.choice((-OU_M0, OU_M0)) for _ in range(3)],
        "initial.stdev": 1.0,
        "normalize_gamma": True, "seed": seed,
    }
    path = work / "ou3d_cn.toml"
    path.write_text(_config_text(settings), encoding="utf-8")
    return path


@dataclass(frozen=True)
class Workload:
    name: str
    write_config: Callable[[Path, int], Path]
    check_summary: Callable[[dict], list[str]]


# Why each workload: see BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("ou1d", _ou1d_config, _check_ou(1)),
    Workload("atoms2d_snap", _atoms2d_snap_config, _check_guaranteed_rate),
    Workload("ou3d_cn", _ou3d_cn_config, _check_ou(3)),
)}


@dataclass
class Outcome:
    ok: bool
    started: float  # time.monotonic() at spawn
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _total(spans: list[dict], name: str) -> float:
    return sum(_dur(s) for s in spans if s["name"] == name)


def _calls(spans: list[dict], name: str) -> list[float]:
    return [_dur(s) for s in spans if s["name"] == name]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of each layer: span duration minus its child spans.

    Only spans under a ``cli.main`` root count, so work the harness adds
    outside the command is not charged to a layer.
    """
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += _dur(s)
            root[i] = root[s["parent"]]
    out = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if spans[root[i]]["name"] == "cli.main":
            out[s["name"].split(".")[0]] += _dur(s) - child[i]
    return out


def step_times_ms(spans: list[dict], record_every: int, steps: int) -> list[float]:
    """Per-step milliseconds from the gaps between observer calls in one evolve.

    Each gap between two consecutive energy snapshots inside the CLI's
    ``evolve`` holds ``record_every`` steps plus the observer's own work
    (the snapshot and any density CSV); that work is subtracted.
    """
    evolve = next(i for i, s in enumerate(spans) if s["name"] == "solver.evolve")
    kids = sorted((s for s in spans if s["parent"] == evolve), key=lambda s: s["start"])
    snaps = [s for s in kids if s["name"] == "analysis.snapshot"]
    out = []
    for a, b in zip(snaps, snaps[1:steps // record_every + 1]):
        busy = sum(_dur(k) for k in kids if a["start"] <= k["start"] < b["start"])
        out.append((b["start"] - a["start"] - busy) * 1e3 / record_every)
    return out


def layer_values(r: list[dict], v: list[dict], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced ``run`` (spans r) and ``verify`` (spans v)."""
    values = {
        "config.resolve_s": _total(r, "config.load_config_dict") + _total(r, "config.resolve_config"),
        "potential.build_s": _total(r, "potential.build_gibbs"),
        "grid.operator_build_s": _total(r, "grid.operator"),
        "grid.nodes": counts["grid.nodes"],
        "grid.nnz": counts["grid.nnz"],
        "grid.field_to_csv_s": median(_calls(r, "grid.field_to_csv")),
        "solver.evolve_s": _total(r, "solver.evolve"),
        "analysis.snapshot_ms": 1e3 * median(_calls(r, "analysis.snapshot")),
        "analysis.minimizer_s": _total(r, "analysis.compute_minimizer"),
        "analysis.fit_s": _total(r, "analysis.fit_decay_rate"),
        "entropy.check_assumptions_s": _total(v, "entropy.check_assumptions"),
        "entropy.legendre_conjugate_ms": 1e3 * median(_calls(v, "entropy.legendre_conjugate")),
        "verify.run_s": _total(v, "verify.run_verification"),
        "cli.main_s": _total(r, "cli.main"),
    }
    run_self, verify_self = self_times(r), self_times(v)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = run_self[layer] + verify_self[layer]
    return values


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def environment(env: dict) -> dict:
    """Versions, CPU count, git SHA and the thread variables children get."""
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    sha = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_sha": sha,
        "threads": {k: env.get(k) for k in THREAD_VARS},
    }


class Bench:
    """One benchmark run: repetitions of one workload with one seed."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.timeseries_digest: str | None = None
        self.last_run: dict = {}
        self.notes: dict[str, str] = {}
        self.env = {**os.environ, **THREAD_VARS}
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.config = workload.write_config(work, seed)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)

    def spawn(self, label: str, args: list[str]) -> Outcome:
        """Start one process, wait for it, and count it as one operation.

        Output goes to files in the work directory so that ``wait4`` can
        collect the child's own resource usage (its peak RSS).
        """
        self.attempted += 1
        out_path, err_path = self.work / f"{label}.out", self.work / f"{label}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        if "Traceback (most recent call last)" in stderr:
            problems.append("traceback on stderr")
        if problems:
            self.fail(label, problems + [stderr.strip()[-400:]])
        return Outcome(ok=not problems, started=t0, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                       stdout=stdout, stderr=stderr)

    def cli(self, label: str, out_dir: Path, command: str, run_id: str | None = None) -> Outcome:
        """One CLI command.

        With ``run_id`` it is traced in-process; an untraced ``run`` records
        only its ``evolve`` span.  Spans go to ``<label>.spans``.
        """
        args = ["--config", str(self.config), "--out", str(out_dir), "--seed", str(self.seed), command]
        spans = str(self.work / f"{label}.spans")
        if run_id is not None:
            cmd = [sys.executable, str(CHILD), "trace", spans, run_id, *args]
        elif command == "run":
            cmd = [sys.executable, str(CHILD), "time", spans, *args]
        else:
            cmd = [sys.executable, "-m", "entroflow.cli", *args]
        outcome = self.spawn(label, cmd)
        if not outcome.ok:
            return outcome
        problems = self.check_run(out_dir) if command == "run" else []
        if command == "verify" and "[FAIL]" in outcome.stdout:
            problems.append("verify reported FAIL")
        if problems:
            outcome.ok = False
            self.fail(label, problems)
        return outcome

    def check_run(self, out_dir: Path) -> list[str]:
        try:
            summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
            raw = (out_dir / "timeseries.csv").read_bytes()
            rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
            drift = max(abs(float(r["mass"]) - 1.0) for r in rows)
            w_min = min(float(r["w_min"]) for r in rows)
        except (OSError, ValueError, KeyError) as exc:
            return [f"run artifacts unreadable: {exc}"]
        problems = self.workload.check_summary(summary)
        if drift > MASS_DRIFT_MAX:
            problems.append(f"mass drift {drift:.3e} above {MASS_DRIFT_MAX}")
        if w_min < W_MIN_FLOOR:
            problems.append(f"w_min {w_min:.3e} below {W_MIN_FLOOR}")
        digest = hashlib.sha256(raw).hexdigest()
        if self.timeseries_digest is None:
            self.timeseries_digest = digest
        elif digest != self.timeseries_digest:
            problems.append("timeseries.csv differs from the first repetition of this seed")
        self.last_run = {"steps": summary.get("steps"), "drift": drift, "w_min": w_min}
        return problems

    def spans(self, label: str) -> dict:
        return json.loads((self.work / f"{label}.spans").read_text(encoding="utf-8"))

    def import_times(self, label: str) -> None:
        outcome = self.spawn(label, [sys.executable, "-X", "importtime", "-c", "import entroflow"])
        if outcome.ok:
            times = parse_importtime(outcome.stderr)
            self.add("import.total_s", times["entroflow"])
            self.add("import.entropy_s", times["entroflow.entropy"])

    def rep_untraced(self, k: int) -> None:
        out = self.work / f"rep{k}"
        run = self.cli(f"rep{k}-run", out, "run")
        self.add("run_s", run.wall_s)
        self.add("peak_rss_mb", run.peak_rss_mb)
        if run.ok:
            evolve = next(s for s in self.spans(f"rep{k}-run")["spans"] if s["name"] == "solver.evolve")
            self.add("setup_s", evolve["start"] - run.started)
            self.add("steps_per_s", self.last_run["steps"] / _dur(evolve))
        self.add("verify_s", self.cli(f"rep{k}-verify", out, "verify").wall_s)

    def rep_traced(self, k: int) -> None:
        out = self.work / f"rep{k}"
        run = self.cli(f"rep{k}-run", self.work / f"rep{k}-untraced", "run")
        self.add("run_s", run.wall_s)
        run_id = f"{self.workload.name}-seed{self.seed}-rep{k}"
        traced = self.cli(f"rep{k}-traced-run", out, "run", run_id)
        steps, drift, w_min = (self.last_run.get(key) for key in ("steps", "drift", "w_min"))
        traced_verify = self.cli(f"rep{k}-traced-verify", out, "verify", run_id)
        self.import_times(f"rep{k}-importtime")
        if not (traced.ok and traced_verify.ok):
            return
        tr, tv = self.spans(f"rep{k}-traced-run"), self.spans(f"rep{k}-traced-verify")
        r = tr["spans"]
        # the traced process minus the snapshot probe it adds after cli.main
        added = sum(_dur(s) for s in r if s["parent"] is None and s["name"] != "cli.main")
        self.add("traced_run_s", traced.wall_s - added)
        values = layer_values(r, tv["spans"], tr["counts"])
        values["solver.mass_drift"], values["solver.w_min"] = drift, w_min
        for name, value in values.items():
            self.add(name, value)
        for ms in step_times_ms(r, tr["counts"]["record_every"], steps):
            self.add("step_ms", ms)

    def measure(self, seconds: float, trace: bool) -> None:
        self.spawn("warmup", [sys.executable, "-c", "import entroflow"])
        rep = self.rep_traced if trace else self.rep_untraced
        t0 = time.perf_counter()
        k = 0
        while True:
            r0 = time.perf_counter()
            rep(k)
            k += 1
            elapsed, last = time.perf_counter() - t0, time.perf_counter() - r0
            if self.failed or elapsed + last > seconds or last > self.remaining() - 10.0:
                break

    def metrics(self, trace: bool) -> dict:
        s = self.samples
        out = {}
        if trace:
            steps = sorted(s.get("step_ms", []))
            if len(steps) > 10:
                s["solver.step_ms_p50"] = [median(steps)]
                # the highest percentile with ten samples beyond it
                s["solver.step_ms_tail"] = [steps[-11]]
                self.notes["solver.step_ms_p50"] = f"p50 of {len(steps)} step samples"
                self.notes["solver.step_ms_tail"] = (
                    f"p{100.0 * (len(steps) - 10) / len(steps):.1f} of {len(steps)} step samples")
            if s.get("traced_run_s") and s.get("run_s"):
                s["trace.overhead_s"] = [median(s["traced_run_s"]) - median(s["run_s"])]
        for name, (unit, _) in (PER_LAYER if trace else END_TO_END).items():
            if s.get(name):
                out[name] = {"value": median(s[name]), "unit": unit}
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS],
                        help="one workload, or all of them in turn (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and waited for, and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in (ROOT / "src" / "entroflow" / "cli.py", ROOT / "configs" / "ou_shannon.toml"):
        if not needed.is_file():
            print(f"benchmark: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2

    results = {}
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as tmp:
            bench = Bench(WORKLOADS[name], args.seed, Path(tmp))
            bench.measure(args.seconds, bool(args.trace))
            results[name] = report(bench, bench.metrics(bool(args.trace)), args.trace)
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def report(bench: Bench, metrics: dict, trace: int) -> dict:
    """Print the human-readable lines and return the workload's result object."""
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# workload {bench.workload.name} seed {bench.seed} trace {trace}")
    print(f"# env {json.dumps(environment(bench.env), sort_keys=True)}")
    for name, m in metrics.items():
        samples = bench.samples[name]
        note = f"; {bench.notes[name]}" if name in bench.notes else ""
        print(f"{name} = {m['value']!r} {m['unit']} (median of {len(samples)}: "
              f"{', '.join(f'{v:.6g}' for v in samples)}{note})")
    share = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"fail_share = {share!r} ({bench.failed} of {bench.attempted} operations failed)")
    return {"correct": bench.failed == 0 and bench.attempted > 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
