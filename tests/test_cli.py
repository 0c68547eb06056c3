"""Config parsing and the command-line contract: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroflow
from entroflow import ScalarField, build_grid, cli, field_from_csv, field_to_csv
from entroflow.cli import main, read_timeseries
from entroflow.config import ConfigError, load_config, parse_config_text

FAST_OU = """\
# fast variant of the solvable benchmark
lambda = 1.0
tau = 1.0
entropy.family = "shannon"
grid.dim = 1
grid.lo = [-6.0]
grid.hi = [6.0]
grid.n = [201]
solver.dt = 2e-3
solver.t_final = 0.7
solver.record_every = 9
initial.kind = "gaussian"
initial.mean = [0.5]
seed = 3
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.toml"
    path.write_text(FAST_OU, encoding="utf-8")
    return path


def run_python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports entroflow from this source tree."""
    src = str(Path(entroflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_cli_import_skips_scipy_optimize():
    """Every CLI process would pay for scipy.optimize; nothing in the package uses it."""
    proc = run_python("-c", "import sys, entroflow.cli; print('scipy.optimize' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_skips_process_pool():
    """Only sweep --jobs N > 1 makes a pool, so the CLI import leaves out
    concurrent.futures.process (about 20 ms of every CLI process) until
    cli.ProcessPoolExecutor is first read."""
    proc = run_python("-c", "import sys, entroflow.cli\n"
                      "print('concurrent.futures.process' in sys.modules)\n"
                      "entroflow.cli.ProcessPoolExecutor\n"
                      "print('concurrent.futures.process' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


FAST_OU_3D = (FAST_OU.replace("grid.dim = 1", "grid.dim = 3")
              .replace("grid.lo = [-6.0]", "grid.lo = [-6.0, -6.0, -6.0]")
              .replace("grid.hi = [6.0]", "grid.hi = [6.0, 6.0, 6.0]")
              .replace("grid.n = [201]", "grid.n = [15, 15, 15]")
              .replace("solver.t_final = 0.7", "solver.t_final = 0.1")
              .replace("initial.mean = [0.5]", "initial.mean = [0.5, 0.0, -0.5]"))

# the three-atom dataset weight on a 9x9 grid: 2-d and not a product over
# axes, so it takes the PCG backend, the one that solver.max_iters and
# solver.linear_tol govern
ATOMS_9 = f"""\
dataset = {str(Path(__file__).resolve().parents[1] / "configs" / "three_atoms.csv")!r}
z_min = [-1.0]
z_max = [1.0]
y_min = 0.0
y_max = 1.0
lambda = 1.0
tau = 1.0
grid.dim = 2
grid.lo = [-5.0, -5.0]
grid.hi = [5.0, 5.0]
grid.n = [9, 9]
solver.dt = 0.05
solver.t_final = 0.6
solver.record_every = 1
initial.kind = "gaussian"
initial.mean = [1.0, 0.0]
"""


def test_run_skips_scipy_linear_algebra(tmp_path):
    """No scipy module is loaded by the CLI import, nor by run and verify on
    any solver backend: a 1-d config takes the tridiagonal scans, a 2-d
    dataset config PCG, a 3-d OU config fast diagonalization.  Importing scipy.sparse and scipy.special
    about doubled the start-up time and the peak RSS of a 1-d run."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    atoms = ((configs / "atoms2d.toml").read_text(encoding="utf-8")
             .replace('"three_atoms.csv"', repr(str(configs / "three_atoms.csv")))
             .replace("solver.t_final = 5.0", "solver.t_final = 0.02"))
    for name, text in (("ou1d.toml", FAST_OU), ("atoms2d.toml", atoms), ("ou3d.toml", FAST_OU_3D)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    script = (
        "import sys\n"
        "from entroflow.cli import main\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "codes = [main(['--config', f'{sys.argv[1]}/{name}.toml', '--out', f'{sys.argv[1]}/{name}',\n"
        "               command]) for name in ('ou1d', 'atoms2d', 'ou3d') for command in ('run', 'verify')]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_python("-c", script, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "[]"
    # verify on the coarse 15^3 grid fails energy.sobolev_ratio_bound (exit 1)
    assert lines[-1] == "[0, 0, 0, 0, 0, 1] []"


def test_benchmark_trace_hooks(tmp_path):
    """The benchmark's layer tracer still finds the functions it wraps and reads."""
    cfg = tmp_path / "ou9.toml"
    cfg.write_text(FAST_OU_3D.replace("grid.n = [15, 15, 15]", "grid.n = [9, 9, 9]"),
                   encoding="utf-8")
    spans = tmp_path / "spans.json"
    child = Path(__file__).resolve().parents[1] / "benchmarks" / "child.py"
    proc = run_python(str(child), "trace", str(spans), "id",
                      "--config", str(cfg), "--out", str(tmp_path / "out"), "run")
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    names = {s["name"] for s in trace["spans"]}
    assert {"grid.operator", "solver.evolve", "analysis.snapshot"} <= names
    # 9^3 nodes plus two entries for each of the 3 * 8 * 9^2 edges
    assert trace["counts"]["grid.nnz"] == 4617


class TestConfigParsing:
    def test_flat_values(self):
        raw = parse_config_text('a = 1\nb = 2.5\nc = "text"\nd = true\ne = [1, 2]\n# note\n')
        assert raw == {"a": 1, "b": 2.5, "c": "text", "d": True, "e": [1, 2]}

    def test_inline_comments_and_bare_strings(self):
        raw = parse_config_text('scheme = implicit-euler  # default\n'
                                'dataset = "data#1.csv"  # a quoted # is part of the value\n')
        assert raw == {"scheme": "implicit-euler", "dataset": "data#1.csv"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    def test_json_alternative(self, tmp_path):
        path = tmp_path / "cfg.json"
        payload = {
            "lambda": 1.0, "tau": 1.0, "grid.dim": 1, "grid.lo": [-6.0],
            "grid.hi": [6.0], "grid.n": [101], "solver.dt": 1e-2,
            "solver.t_final": 0.1, "initial.kind": "uniform",
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.lam == 1.0 and cfg.grid.n == (101,)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("lambda = 1.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="tau"):
            load_config(path)

    def test_scalar_broadcast_to_dimension(self, tmp_path):
        path = tmp_path / "cfg.toml"
        path.write_text(
            "lambda = 1.0\ntau = 1.0\ngrid.dim = 2\ngrid.lo = [-3.0]\n"
            "grid.hi = [3.0]\ngrid.n = [21]\nsolver.dt = 1e-2\nsolver.t_final = 0.1\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.grid.lo == (-3.0, -3.0) and cfg.grid.n == (21, 21)

    def test_default_box_when_bounds_absent(self, tmp_path):
        path = tmp_path / "cfg.toml"
        path.write_text(
            "lambda = 1.0\ntau = 1.0\ngrid.dim = 1\ngrid.n = [51]\n"
            "solver.dt = 1e-2\nsolver.t_final = 0.1\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.grid.hi[0] > 6.0
        assert cfg.grid.lo[0] == -cfg.grid.hi[0]

    def test_default_box_widens_with_dataset_envelope(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("z_1,y\n0.1,0.5\n", encoding="utf-8")
        base = ("lambda = 1.0\ntau = 1.0\ngrid.dim = 2\ngrid.n = [51]\n"
                "solver.dt = 1e-2\nsolver.t_final = 0.1\n")
        plain = tmp_path / "plain.toml"
        plain.write_text(base.replace("grid.dim = 2", "grid.dim = 1"), encoding="utf-8")
        with_data = tmp_path / "with_data.toml"
        with_data.write_text(
            base + f'dataset = "{csv.name}"\nz_min = [-1.0]\nz_max = [1.0]\n'
            "y_min = 0.0\ny_max = 1.0\n",
            encoding="utf-8",
        )
        assert load_config(with_data).grid.hi[0] > load_config(plain).grid.hi[0]

    def test_missing_dataset_file_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text(
            'lambda = 1.0\ntau = 1.0\ngrid.dim = 2\ngrid.n = [21]\n'
            'grid.lo = [-5.0]\ngrid.hi = [5.0]\n'
            'solver.dt = 1e-2\nsolver.t_final = 0.1\n'
            'dataset = "nowhere.csv"\nz_min = [-1.0]\nz_max = [1.0]\n'
            'y_min = 0.0\ny_max = 1.0\n',
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2


NAN, INF = float("nan"), float("inf")
# config changes on top of FAST_OU (None removes a key), each with the start
# of its one-line config error
INVALID = [
    *(({key: value}, f"{key} must be") for key, value in (
        ("solver.dt", NAN), ("solver.t_final", NAN), ("solver.t_final", INF),
        ("solver.linear_tol", NAN), ("solver.record_every", INF), ("seed", INF),
        ("lambda", INF), ("tau", INF), ("grid.hi", [INF]),
        # an integer key takes no fractional value, and no key takes a boolean
        ("grid.n", [61.9]), ("seed", 1.5), ("solver.record_every", 2.5),
        ("grid.dim", True), ("lambda", True))),
    ({"entropy.family": "tsallis", "entropy.q": NAN}, "entropy.q must be"),
    ({"seed": -1}, "seed must be nonnegative"),
    ({"solver.sheme": "crank-nicolson"}, "unknown config key(s) 'solver.sheme'"),
    ({"entropy.tau": 2.0}, "unknown config key(s) 'entropy.tau'"),
    ({"normalize_gamma": "false"}, "normalize_gamma must be true"),
    ({"normalize_gamma": False}, "normalize_gamma must be true"),
    # tau/lambda overflows: sqrt(tau/lambda), the default initial.stdev and box scale, is inf
    ({"lambda": 1e-310}, "lambda = 1e-310 is too small for tau = 1.0"),
    ({"grid.hi": None}, "grid.lo and grid.hi must be given together"),
]


class TestRunCommand:
    def test_artifacts_and_exit_code(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--config", str(fast_config), "--out", str(out), "run"]) == 0
        records = read_timeseries(out / "timeseries.csv")
        # t=0, every 9th of 350 steps, and the final partial-cadence record
        assert len(records) == 1 + 350 // 9 + 1
        assert records[0].t == 0.0 and records[-1].t == pytest.approx(0.7)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["lambda_theory"] == 2.0
        assert summary["fitted_rate"] == pytest.approx(2.0, rel=0.05)
        assert summary["steps"] == 350
        assert "M" not in summary and "M_grid" in summary

    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.toml"), "run"]) == 2

    def test_malformed_config_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("lambda = 1.0\ngrid.dim = 1\n", encoding="utf-8")
        assert main(["--config", str(bad), "--out", str(tmp_path / "o"), "run"]) == 2

    @pytest.mark.parametrize("key,value", [("initial.stdev", "0.0"), ("initial.stdev", "-1.0"),
                                           ("lambda", "-1.0"), ("tau", "0.0")])
    def test_nonpositive_parameter_is_exit_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(FAST_OU + f"{key} = {value}\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be positive" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_underflowing_gibbs_weight_is_exit_2(self, tmp_path, command):
        """At tau = 0.01 exp(-V/tau) underflows to 0 on [-6, 6]; the box is rejected."""
        cfg = tmp_path / "cold.toml"
        cfg.write_text(FAST_OU.replace("tau = 1.0", "tau = 0.01"), encoding="utf-8")
        proc = run_python("-m", "entroflow.cli", "--config", str(cfg),
                          "--out", str(tmp_path / "o"), command)
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert "underflows" in lines[0] and "tau = 0.01" in lines[0] and "[-6, 6]" in lines[0]

    def test_underflow_without_automatic_box(self, tmp_path, capsys):
        """At tau = 1e-8 the automatic box of the atoms dataset needs exp(2M/tau),
        which overflows; the underflow error then suggests no box."""
        configs = Path(__file__).resolve().parents[1] / "configs"
        cfg = tmp_path / "atoms.toml"
        cfg.write_text((configs / "atoms2d.toml").read_text(encoding="utf-8")
                       .replace('"three_atoms.csv"', repr(str(configs / "three_atoms.csv")))
                       .replace("grid.n = [101, 101]", "grid.n = [9, 9]")
                       .replace("tau = 1.0", "tau = 1e-8"), encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "underflows" in err[0] and "automatic" not in err[0]

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("values", ["negative", "zeros"])
    def test_bad_initial_density_file_is_exit_2(self, tmp_path, capsys, command, values):
        """A from-file density with a negative entry, or all zeros, is a config error."""
        cfg = tmp_path / "from_file.toml"
        cfg.write_text(FAST_OU.replace('initial.kind = "gaussian"', 'initial.kind = "from-file"')
                       + 'initial.path = "w0.csv"\n', encoding="utf-8")
        w0 = np.zeros(201) if values == "zeros" else np.where(np.arange(201) == 100, -1e-3, 1.0)
        field_to_csv(ScalarField(build_grid(1, -6.0, 6.0, 201), w0), tmp_path / "w0.csv")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: initial density file")

    def test_verify_reads_initial_density_first(self, tmp_path, capsys, monkeypatch):
        """A bad from-file density stops verify before any check runs."""
        def no_checks(gen):
            raise AssertionError("the entropy checks ran before the initial density was read")
        monkeypatch.setattr("entroflow.verify.check_assumptions", no_checks)
        cfg = tmp_path / "from_file.toml"
        cfg.write_text(FAST_OU.replace('initial.kind = "gaussian"', 'initial.kind = "from-file"')
                       + 'initial.path = "w0.csv"\n', encoding="utf-8")
        field_to_csv(ScalarField(build_grid(1, -6.0, 6.0, 201), np.zeros(201)), tmp_path / "w0.csv")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"]) == 2
        assert capsys.readouterr().err.startswith("config error: initial density file")

    @pytest.mark.parametrize("values,message", [
        pytest.param(values, message, id="-".join(f"{k}={v}" for k, v in values.items()))
        for values, message in INVALID])
    @pytest.mark.parametrize("form", ["toml", "json"])
    def test_invalid_input_is_exit_2(self, tmp_path, capsys, values, message, form):
        """A non-finite number (from the text parser or JSON), an unknown key or a
        value that would be misread is named on one line."""
        raw = {k: v for k, v in {**parse_config_text(FAST_OU), **values}.items() if v is not None}
        cfg = tmp_path / f"bad.{form}"
        cfg.write_text(json.dumps(raw) if form == "json"
                       else "".join(f"{k} = {json.dumps(v)}\n" for k, v in raw.items()),
                      encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {message}")

    def test_verify_at_small_tau_has_no_traceback(self, tmp_path):
        """At tau = 0.01 the conjugate maximizer e^(r/tau) passes 2^200 and |phi*| 1e171."""
        configs = Path(__file__).resolve().parents[1] / "configs"
        cfg = tmp_path / "cold.toml"
        lines = (configs / "ou_shannon.toml").read_text(encoding="utf-8").splitlines(keepends=True)
        cfg.write_text("".join(line for line in lines
                               if not line.startswith(("grid.lo", "grid.hi", "tau ")))
                       + "tau = 0.01\n", encoding="utf-8")
        proc = run_python("-m", "entroflow.cli", "--config", str(cfg),
                          "--out", str(tmp_path / "o"), "verify")
        assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr, proc.stderr
        assert "conjugate_closed_form" in proc.stdout

    def test_solver_failure_is_exit_3(self, tmp_path):
        # a PCG solve with a single allowed iteration cannot converge
        cfg = tmp_path / "hard.toml"
        cfg.write_text(ATOMS_9 + "solver.max_iters = 1\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 3

    def test_determinism_byte_identical(self, fast_config, tmp_path):
        """Two identical runs produce identical artifacts (volatile keys aside)."""
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", str(fast_config), "--out", str(out1), "run"]) == 0
        assert main(["--config", str(fast_config), "--out", str(out2), "run"]) == 0
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        s1.pop("wall_time_s"), s2.pop("wall_time_s")
        assert s1 == s2

    def test_solver_backend_reported(self, tmp_path, capsys):
        """A product-form weight takes fast diagonalization; a dataset weight PCG."""
        ou3d = tmp_path / "ou3d.toml"
        ou3d.write_text(FAST_OU_3D, encoding="utf-8")
        configs = Path(__file__).resolve().parents[1] / "configs"
        atoms = tmp_path / "atoms2d.toml"
        atoms.write_text((configs / "atoms2d.toml").read_text(encoding="utf-8")
                         .replace('"three_atoms.csv"', repr(str(configs / "three_atoms.csv")))
                         .replace("solver.t_final = 5.0", "solver.t_final = 0.02"),
                         encoding="utf-8")
        for cfg, backend in ((ou3d, "fastdiag"), (atoms, "pcg")):
            out = tmp_path / cfg.stem
            assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
            assert json.loads((out / "summary.json").read_text())["solver_backend"] == backend
            assert f"steps ({backend})" in capsys.readouterr().out

    def test_snapshots_written(self, tmp_path):
        """Every snapshot_every-th record is written, as node coordinates and
        value, each with repr, on a 1-d and a 2-d grid."""
        runs = [(FAST_OU, 20, build_grid(1, -6.0, 6.0, 201)),
                (ATOMS_9, 5, build_grid(2, -5.0, 5.0, 9))]
        for k, (text, every, grid) in enumerate(runs):
            cfg, out = tmp_path / f"snap{k}.toml", tmp_path / f"out{k}"
            cfg.write_text(text + f"output.snapshot_every = {every}\n", encoding="utf-8")
            assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
            assert (out / "w_t0.csv").exists()
            snaps = sorted(out.glob("w_t*.csv"))
            records = read_timeseries(out / "timeseries.csv")
            assert len(snaps) == -(-len(records) // every) >= 2
            for path in snaps:
                rows = np.column_stack([grid.nodes, field_from_csv(grid, path).values]).tolist()
                header = ",".join(f"x_{a + 1}" for a in range(grid.dim)) + ",value"
                lines = [header] + [",".join(map(repr, row)) for row in rows]
                assert path.read_bytes() == ("\n".join(lines) + "\n").encode(), path.name


SMOKE_BASE = """\
lambda = 1.0
tau = 1.0
grid.dim = 1
grid.lo = [-5.0]
grid.hi = [5.0]
grid.n = [15]
solver.dt = 0.05
solver.t_final = 0.6
solver.record_every = 1
initial.kind = "gaussian"
initial.mean = [1.0]
"""
TIMESERIES = "t,energy,fisher,mass,w_min,w_max\n" + "".join(
    f"{0.1 * k!r},{math.exp(-0.2 * k)!r},1.0,1.0,1.0,1.0\n" for k in range(40))
SWEEP = ["sweep", "--axis", "lambda", "--values", "1,2"]
# Inputs that ended in a traceback with exit 1 before main mapped every error:
# (config text, or bytes, or None for a directory; --out: None for a fresh
# directory, "file" for an existing file, else the files it holds; command
# line; exit code).  The Crank-Nicolson inputs also emit the solver's
# undershoot warnings; no input may emit any other warning, such as numpy's.
ESCAPED = {
    "run-out-is-file": (FAST_OU, "file", ["run"], 2),
    "verify-out-is-file": (FAST_OU, "file", ["verify"], 2),
    "minimizer-out-is-file": (FAST_OU, "file", ["minimizer"], 2),
    "sweep-out-is-file": (FAST_OU, "file", SWEEP, 2),
    "config-is-a-directory": (None, None, ["run"], 2),
    "config-not-utf8": (FAST_OU.encode() + b"# \xff\n", None, ["run"], 2),
    "rate-timeseries-non-number": (FAST_OU, {"timeseries.csv": TIMESERIES + "4.0,x,1,1,1,1\n"},
                                   ["rate"], 2),
    "rate-timeseries-short-row": (FAST_OU, {"timeseries.csv": TIMESERIES + "4.0,1e-4\n"},
                                  ["rate"], 2),
    "rate-summary-without-E_star": (
        FAST_OU, {"timeseries.csv": TIMESERIES, "summary.json": '{"lambda_theory": 2.0}'},
        ["rate"], 2),
    "rate-summary-not-json": (FAST_OU, {"timeseries.csv": TIMESERIES, "summary.json": "{"},
                              ["rate"], 2),
    "sweep-worker-does-not-converge": (ATOMS_9 + "solver.max_iters = 1\n", None,
                                       ["--jobs", "2", *SWEEP], 3),
    "gaussian-vanishes-on-grid": (FAST_OU + "initial.stdev = 1e-6\n", None, ["run"], 2),
    "gaussian-variance-overflows": (FAST_OU + "initial.stdev = 1e160\n", None, ["verify"], 2),
    "gaussian-mean-overflows": (FAST_OU + "initial.mean = [1e200]\n", None, ["run"], 2),
    # the flow's density goes negative: Crank-Nicolson on a narrow bump
    "crank-nicolson-goes-negative": (
        FAST_OU.replace("solver.dt = 2e-3", "solver.dt = 0.2")
        + 'solver.scheme = "crank-nicolson"\ninitial.stdev = 0.05\n', None, ["run"], 3),
    "verify-crank-nicolson-goes-negative": (
        FAST_OU.replace("solver.dt = 2e-3", "solver.dt = 0.2")
        + 'solver.scheme = "crank-nicolson"\ninitial.stdev = 0.05\n', None, ["verify"], 3),
    # a tolerance below roundoff: the search direction vanishes (p.Ap = 0)
    "pcg-breaks-down": (ATOMS_9 + "solver.t_final = 30.0\nsolver.linear_tol = 1e-300\n", None,
                        ["run"], 3),
}


def _make_out(out: Path, spec) -> None:
    """Leave ``out`` absent (None), make it a file ("file"), or a directory
    holding the files of the dict ``spec``."""
    if spec == "file":
        out.write_text("an existing file\n", encoding="utf-8")
    elif spec is not None:
        out.mkdir()
        for name, text in spec.items():
            (out / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("case", sorted(ESCAPED))
def test_every_failure_is_one_line_exit_2_or_3(tmp_path, capsys, case):
    """An unusable --out or config file, a malformed artifact and a sweep
    worker's solver failure each end in one stderr line, not a traceback."""
    config, out_spec, command, code = ESCAPED[case]
    cfg = tmp_path / "cfg.toml"
    if config is None:
        cfg.mkdir()
    elif isinstance(config, bytes):
        cfg.write_bytes(config)
    else:
        cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    _make_out(out, out_spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(cfg), "--out", str(out), *command]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("config error:" if code == 2 else "solver diagnostic:")
    others = [str(w.message) for w in caught
              if not str(w.message).startswith("crank-nicolson step produced")]
    assert not others, others


def test_cold_one_dimensional_flow_stays_nonnegative(tmp_path):
    """At tau = 0.01 the Gibbs weight spans 270 decades over 15 nodes.  PCG's
    pointwise error in the far tail drove min(w) to -1.5e51 and exit 3; the
    exact tridiagonal solve keeps every recorded w_min nonnegative."""
    cfg, out = tmp_path / "cold.toml", tmp_path / "o"
    cfg.write_text(SMOKE_BASE + "tau = 0.01\nlambda = 0.5\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
    rows = read_timeseries(out / "timeseries.csv")
    assert len(rows) == 13
    assert all(r.w_min >= 0.0 for r in rows)


# dataset files that ended in a traceback before they were read into
# validated arrays (empty, a short row, a nan feature or label), and files
# that ran with a cell or a column silently dropped (an extra cell, a
# trailing empty cell, a misspelt weight column read as uniform weights)
BAD_DATASETS = {"empty": "", "short-row": "z_1,y\n0.1\n", "nan-feature": "z_1,y\nnan,0.5\n",
                "nan-label": "z_1,y\n0.1,nan\n", "extra-cell": "z_1,y\n0.1,0.5,9.0\n",
                "trailing-empty-cell": "z_1,y\n0.1,0.5,\n",
                "misspelt-column": "z_1,y,wieght\n0.1,0.5,0.7\n0.2,0.5,0.1\n"}


@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_malformed_dataset_is_one_line_exit_2(tmp_path, capsys, case):
    (tmp_path / "d.csv").write_text(BAD_DATASETS[case], encoding="utf-8")
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(SMOKE_BASE.replace("grid.dim = 1", "grid.dim = 2") + 'dataset = "d.csv"\n'
                   "z_min = [-1.0]\nz_max = [1.0]\ny_min = 0.0\ny_max = 1.0\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "row " in err[0], err


def test_sweep_pool_has_no_idle_workers(fast_config, tmp_path, monkeypatch):
    """--jobs 64 over two values asks the pool for two workers, not 64."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert main(["--config", str(fast_config), "--out", str(tmp_path / "s"), "--jobs", "64",
                 *SWEEP]) == 0
    assert sizes == [2]


# config lines appended to SMOKE_BASE (a later line for the same key wins);
# each keeps a command short, and many of them are invalid
SMOKE_LINES = [
    "grid.n = [5]", "grid.n = [9.5]", "grid.n = [1]", "grid.dim = true", "tau = 0.5",
    "tau = 0.01", "lambda = -1.0", "lambda = nan", 'entropy.family = "tsallis"',
    "entropy.q = 2.0", 'entropy.family = "nonconvex-probe"', 'solver.scheme = "crank-nicolson"',
    'solver.scheme = "rk4"', "solver.max_iters = 1", "solver.max_iters = 1e3", "seed = -1",
    "seed = 2.5", "output.snapshot_every = 2", "solver.t_final = 0.01", "unknown.key = 1",
    "solver.linear_tol = 1e-300",
]
# --out: absent, an empty directory, an existing file, or a directory
# holding a corrupted artifact
SMOKE_OUT = [None, {}, "file",
             {"timeseries.csv": TIMESERIES + "5.0,x,1,1,1,1\n"},
             {"timeseries.csv": TIMESERIES + "5.0,1.0\n"},
             {"timeseries.csv": "t,energy\n0.0,1.0\n"},
             {"timeseries.csv": "t,energy,fisher,mass,w_min,w_max\n"},
             {"timeseries.csv": TIMESERIES, "summary.json": "{"},
             {"timeseries.csv": TIMESERIES, "summary.json": "[1, 2]"},
             {"timeseries.csv": TIMESERIES, "summary.json": '{"lambda_theory": 2.0}'},
             {"timeseries.csv": TIMESERIES, "summary.json": '{"E_star": "a", "lambda_theory": 2}'}]
SMOKE_COMMANDS = [["run"], ["verify"], ["rate"], ["minimizer"],
                  ["sweep", "--axis", "lambda", "--values", "0.5,2"],
                  ["sweep", "--axis", "q", "--values", "1.5"],
                  ["sweep", "--axis", "tau", "--values", "x,"]]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(command=st.sampled_from(SMOKE_COMMANDS),
       lines=st.lists(st.sampled_from(SMOKE_LINES), max_size=3),
       out_spec=st.sampled_from(SMOKE_OUT))
def test_every_command_keeps_the_exit_code_contract(command, lines, out_spec):
    """Any command, config and --out returns 0-3, and 2 or 3 with one stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.toml", Path(tmp) / "out"
        cfg.write_text(SMOKE_BASE + "".join(f"{line}\n" for line in lines), encoding="utf-8")
        _make_out(out, out_spec)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(cfg), "--out", str(out), *command])
    assert code in (0, 1, 2, 3)
    if code >= 2:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()


class TestVerifyCommand:
    def test_all_pass_on_solvable_benchmark(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(fast_config), "--out", str(out), "verify"]) == 0
        report = json.loads((out / "verify.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert all(c["passed"] for c in report["checks"])
        assert "potential.mass_finiteness" in names
        finiteness = next(c for c in report["checks"] if c["name"] == "potential.mass_finiteness")
        assert finiteness["margin"] >= 0.0

    def test_max_iters_bounds_the_short_trajectory(self, tmp_path, capsys):
        """solver.max_iters reaches verify's trajectory as it reaches run's."""
        cfg = tmp_path / "one_iter.toml"
        cfg.write_text(ATOMS_9 + "solver.max_iters = 1\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "verify"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("solver diagnostic:")

    def test_invalid_entropy_fails_with_exit_1(self, tmp_path):
        cfg = tmp_path / "probe.toml"
        cfg.write_text(FAST_OU.replace('entropy.family = "shannon"',
                                       'entropy.family = "nonconvex-probe"'), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 1
        report = json.loads((out / "verify.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "entropy.P3-strict-convexity" in failed

    def test_sobolev_failure_names_the_discrete_constant(self, tmp_path, capsys):
        """On a 15^3 grid the ratio exceeds the continuum bound 0.5; the detail
        gives the spacing and the grid's own constant 1/(2 mu_1), which lies above it."""
        cfg = tmp_path / "ou3d.toml"
        cfg.write_text(FAST_OU_3D, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 1
        report = json.loads((out / "verify.json").read_text())
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["energy.sobolev_ratio_bound"]
        detail = next(c["detail"] for c in report["checks"]
                      if c["name"] == "energy.sobolev_ratio_bound")
        assert "vs bound 0.500000; grid h = 0.857143, 0.857143, 0.857143;" in detail
        ratio = float(detail.split("max ratio over 100 densities ")[1].split()[0])
        constant = float(detail.split("discrete 1/(2 mu_1) = ")[1])
        assert constant == pytest.approx(0.5497, abs=1e-4)
        assert 0.5 < ratio < constant
        assert f"[FAIL] energy.sobolev_ratio_bound: {detail}" in capsys.readouterr().out


class TestRateCommand:
    def test_refit_matches_run(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(fast_config), "--out", str(out), "run"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert main(["--config", str(fast_config), "--out", str(out), "rate"]) == 0
        refit = json.loads((out / "rate.json").read_text())
        assert refit["fitted_rate"] == pytest.approx(summary["fitted_rate"], rel=1e-12)

    def test_refit_without_summary_rebuilds_the_weight(self, fast_config, tmp_path):
        """Without summary.json, rate takes E_star and the guaranteed rate from the
        config's own Gibbs weight: the same numbers the run wrote."""
        out = tmp_path / "out"
        assert main(["--config", str(fast_config), "--out", str(out), "run"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        (out / "summary.json").unlink()
        assert main(["--config", str(fast_config), "--out", str(out), "rate"]) == 0
        refit = json.loads((out / "rate.json").read_text())
        assert refit["fitted_rate"] == pytest.approx(summary["fitted_rate"], rel=1e-12)
        assert (refit["E_star"], refit["lambda_theory"]) == (summary["E_star"],
                                                             summary["lambda_theory"])

    def test_missing_timeseries_is_exit_2(self, fast_config, tmp_path):
        assert main(["--config", str(fast_config), "--out", str(tmp_path / "empty"), "rate"]) == 2


class TestMinimizerCommand:
    def test_writes_constant_density(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(fast_config), "--out", str(out), "minimizer"]) == 0
        info = json.loads((out / "minimizer.json").read_text())
        assert info["E_star"] == 0.0
        assert info["constant_value"] == pytest.approx(1.0, rel=1e-9)
        assert (out / "minimizer.csv").exists()


class TestSweepCommand:
    def test_lambda_sweep_rates_scale(self, tmp_path):
        # slow decay at lambda=0.5 needs a longer horizon to fill the fit window
        cfg = tmp_path / "sweep.toml"
        cfg.write_text(FAST_OU.replace("solver.t_final = 0.7", "solver.t_final = 3.0"),
                       encoding="utf-8")
        out = tmp_path / "sweep"
        rc = main(["--config", str(cfg), "--out", str(out),
                   "sweep", "--axis", "lambda", "--values", "0.5,1,2"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,lambda_theory,fitted_rate,ratio"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        fitted = [r[2] for r in rows]
        # decay rate doubles with the curvature parameter
        assert fitted[0] == pytest.approx(1.0, rel=0.05)
        assert fitted[1] == pytest.approx(2.0, rel=0.05)
        assert fitted[2] == pytest.approx(4.0, rel=0.05)
        assert fitted == sorted(fitted)
        assert all(r[2] >= 0.95 * r[1] for r in rows)

    def test_directories_named_by_parameter_cell(self, tmp_path):
        """Values that agree to six digits get their own directories."""
        cfg, out = tmp_path / "smoke.toml", tmp_path / "s"
        cfg.write_text(SMOKE_BASE, encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(out),
                     "sweep", "--axis", "lambda", "--values", "1,1.0000001"]) == 0
        cells = [ln.split(",")[0] for ln in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert cells == ["1.0", "1.0000001"]
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["lambda_1.0",
                                                                       "lambda_1.0000001"]

    def test_repeated_value_is_exit_2_before_any_run(self, tmp_path, capsys):
        cfg, out = tmp_path / "smoke.toml", tmp_path / "s"
        cfg.write_text(SMOKE_BASE, encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(out),
                     "sweep", "--axis", "lambda", "--values", "2,1,2.0"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: sweep values must be distinct")
        assert not out.exists()

    def test_empty_values_is_exit_2(self, fast_config, tmp_path):
        rc = main(["--config", str(fast_config), "--out", str(tmp_path / "s"),
                   "sweep", "--axis", "lambda", "--values", ","])
        assert rc == 2

    def test_parallel_jobs_match_serial(self, fast_config, tmp_path):
        serial, parallel = tmp_path / "ser", tmp_path / "par"
        base = ["--config", str(fast_config), "sweep", "--axis", "q", "--values", "1.5,2"]
        assert main(base[:2] + ["--out", str(serial)] + base[2:]) == 0
        assert main(base[:2] + ["--out", str(parallel), "--jobs", "2"] + base[2:]) == 0
        assert (serial / "sweep.csv").read_text() == (parallel / "sweep.csv").read_text()
        rows = [list(map(float, ln.split(",")))
                for ln in (serial / "sweep.csv").read_text().strip().splitlines()[1:]]
        assert all(r[2] >= 0.95 * r[1] for r in rows)
