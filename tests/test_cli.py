"""Config parsing and the command-line contract: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entroflow
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


FAST_OU_3D = (FAST_OU.replace("grid.dim = 1", "grid.dim = 3")
              .replace("grid.lo = [-6.0]", "grid.lo = [-6.0, -6.0, -6.0]")
              .replace("grid.hi = [6.0]", "grid.hi = [6.0, 6.0, 6.0]")
              .replace("grid.n = [201]", "grid.n = [15, 15, 15]")
              .replace("solver.t_final = 0.7", "solver.t_final = 0.1")
              .replace("initial.mean = [0.5]", "initial.mean = [0.5, 0.0, -0.5]"))


def test_run_skips_scipy_linear_algebra(tmp_path):
    """Both solver backends run without scipy.linalg or scipy.sparse.linalg,
    whose import would add several MB to the peak RSS of every run."""
    for name, text in (("ou1d.toml", FAST_OU), ("ou3d.toml", FAST_OU_3D)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    script = (
        "import sys\n"
        "from entroflow.cli import main\n"
        "codes = [main(['--config', f'{sys.argv[1]}/{name}.toml', '--out', f'{sys.argv[1]}/{name}',\n"
        "               'run']) for name in ('ou1d', 'ou3d')]\n"
        "print(codes, sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))\n"
    )
    proc = run_python("-c", script, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0] []"


class TestConfigParsing:
    def test_flat_values(self):
        raw = parse_config_text('a = 1\nb = 2.5\nc = "text"\nd = true\ne = [1, 2]\n# note\n')
        assert raw == {"a": 1, "b": 2.5, "c": "text", "d": True, "e": [1, 2]}

    def test_inline_comments_and_bare_strings(self):
        raw = parse_config_text("scheme = implicit-euler  # default\n")
        assert raw == {"scheme": "implicit-euler"}

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
        assert cfg.lam == 1.0 and cfg.grid_n == [101]

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
        assert cfg.grid_lo == [-3.0, -3.0] and cfg.grid_n == [21, 21]

    def test_default_box_when_bounds_absent(self, tmp_path):
        path = tmp_path / "cfg.toml"
        path.write_text(
            "lambda = 1.0\ntau = 1.0\ngrid.dim = 1\ngrid.n = [51]\n"
            "solver.dt = 1e-2\nsolver.t_final = 0.1\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.grid_hi[0] > 6.0
        assert cfg.grid_lo[0] == -cfg.grid_hi[0]

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
        assert load_config(with_data).grid_hi[0] > load_config(plain).grid_hi[0]

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

    def test_solver_failure_is_exit_3(self, tmp_path):
        # an enormous step with a single allowed iteration cannot converge
        cfg = tmp_path / "hard.toml"
        text = (FAST_OU.replace("solver.dt = 2e-3", "solver.dt = 50.0")
                .replace("solver.t_final = 0.7", "solver.t_final = 50.0")
                + "solver.max_iters = 1\n")
        cfg.write_text(text, encoding="utf-8")
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
        cfg = tmp_path / "snap.toml"
        cfg.write_text(FAST_OU + "output.snapshot_every = 20\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        assert (out / "w_t0.csv").exists()
        assert len(list(out.glob("w_t*.csv"))) >= 2


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

    def test_invalid_entropy_fails_with_exit_1(self, tmp_path):
        cfg = tmp_path / "probe.toml"
        cfg.write_text(FAST_OU.replace('entropy.family = "shannon"',
                                       'entropy.family = "nonconvex-probe"'), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 1
        report = json.loads((out / "verify.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "entropy.P3-strict-convexity" in failed


class TestRateCommand:
    def test_refit_matches_run(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(fast_config), "--out", str(out), "run"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert main(["--config", str(fast_config), "--out", str(out), "rate"]) == 0
        refit = json.loads((out / "rate.json").read_text())
        assert refit["fitted_rate"] == pytest.approx(summary["fitted_rate"], rel=1e-12)

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
