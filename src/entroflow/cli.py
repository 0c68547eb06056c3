"""Command-line orchestration: run, verify, rate, minimizer, sweep.

Exit codes: 0 success, 1 failed verification, 2 configuration errors,
3 solver diagnostics.  All artifacts are written atomically (temp file then
rename) so an aborted command never leaves partial output behind.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .analysis import (
    EnergyRecord,
    compute_minimizer,
    fit_decay_rate,
    lambda_rate,
    snapshot,
)
from .config import ConfigError, RunConfig, load_config_dict, resolve_config
from .grid import field_to_csv, write_text_atomic
from .solver import SolverDiagnosticError, evolve, init_state, solver_backend
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _out_dir(path: Path) -> None:
    """Create the output directory ``path``; an unusable one is a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {path}: {exc.strerror}") from exc


# the columns of timeseries.csv, each an EnergyRecord field
TIMESERIES_COLUMNS = ("t", "energy", "fisher", "mass", "w_min", "w_max")


def _write_timeseries(path: Path, records: list[EnergyRecord]) -> None:
    lines = [",".join(TIMESERIES_COLUMNS)]
    lines += [",".join(repr(getattr(r, c)) for c in TIMESERIES_COLUMNS) for r in records]
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_timeseries(path: Path) -> list[EnergyRecord]:
    """Read a ``timeseries.csv``; an unreadable or malformed file is a ConfigError."""
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header != list(TIMESERIES_COLUMNS):
                raise ValueError(f"expected columns {list(TIMESERIES_COLUMNS)}, got {header}")
            for line in fh:
                if line.strip():
                    values = map(float, line.split(","))
                    records.append(EnergyRecord(**dict(zip(TIMESERIES_COLUMNS, values, strict=True))))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return records


def _write_json(path: Path, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _execute_run(cfg: RunConfig, out_dir: Path) -> dict:
    """Run one trajectory and write timeseries.csv / summary.json into out_dir."""
    _out_dir(out_dir)
    started = time.perf_counter()
    gen = cfg.generator
    gibbs = cfg.build_gibbs()
    state = init_state(gibbs, cfg.initial_density(gibbs))

    records: list[EnergyRecord] = []

    def observer(t, w):
        records.append(snapshot(t, w, gibbs, gen))
        if cfg.snapshot_every > 0 and (len(records) - 1) % cfg.snapshot_every == 0:
            field_to_csv(w, out_dir / f"w_t{t:.6g}.csv")

    _, steps = evolve(state, cfg, observer=observer)
    _write_timeseries(out_dir / "timeseries.csv", records)

    theory = lambda_rate(cfg.lam, cfg.tau, gibbs.m_grid)
    _, e_star = compute_minimizer(gibbs, gen)
    try:
        report = fit_decay_rate(records, e_star, theory)
        fitted, resid, window = report.fitted_rate, report.fit_residual, list(report.fit_window)
    except ValueError:
        fitted, resid, window = None, None, None

    summary = {
        "lambda": cfg.lam,
        "tau": cfg.tau,
        "M_grid": gibbs.m_grid,
        "M_envelope": gibbs.m_envelope,
        "Z": gibbs.Z,
        "Z_raw": gibbs.Z_raw,
        "lambda_theory": theory,
        "E_star": e_star,
        "E_initial": records[0].energy if records else None,
        "fitted_rate": fitted,
        "fit_residual": resid,
        "fit_window": window,
        "steps": steps,
        "solver_backend": solver_backend(gibbs.operator(), cfg),
        "t_final": records[-1].t,
        "wall_time_s": time.perf_counter() - started,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    summary = _execute_run(cfg, out_dir)
    rate = summary["fitted_rate"]
    rate_txt = f"{rate:.6f}" if rate is not None else "n/a"
    print(f"run complete: {summary['steps']} steps ({summary['solver_backend']}), "
          f"fitted rate {rate_txt}, guaranteed rate {summary['lambda_theory']:.6f}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    _out_dir(out_dir)
    results = run_verification(cfg)
    _write_json(out_dir / "verify.json", {"checks": [r.to_dict() for r in results]})
    failures = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_rate(cfg: RunConfig, out_dir: Path) -> int:
    records = read_timeseries(out_dir / "timeseries.csv")
    summary_path = out_dir / "summary.json"
    if summary_path.exists():
        try:
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            e_star, theory = float(summary["E_star"]), float(summary["lambda_theory"])
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"{summary_path} needs numbers E_star and lambda_theory: "
                              f"{exc!r}") from exc
    else:
        gibbs = cfg.build_gibbs()
        _, e_star = compute_minimizer(gibbs, cfg.generator)
        theory = lambda_rate(cfg.lam, cfg.tau, gibbs.m_grid)
    try:
        report = fit_decay_rate(records, e_star, theory)
    except ValueError as exc:
        print(f"rate fit failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _write_json(out_dir / "rate.json", report.to_dict())
    print(f"fitted rate {report.fitted_rate:.6f} over window "
          f"[{report.fit_window[0]:.3f}, {report.fit_window[1]:.3f}], "
          f"guaranteed rate {theory:.6f}")
    return EXIT_OK


def cmd_minimizer(cfg: RunConfig, out_dir: Path) -> int:
    _out_dir(out_dir)
    gibbs = cfg.build_gibbs()
    w_star, e_star = compute_minimizer(gibbs, cfg.generator)
    field_to_csv(w_star, out_dir / "minimizer.csv")
    _write_json(out_dir / "minimizer.json", {
        "E_star": e_star, "Z": gibbs.Z, "constant_value": float(w_star.values[0]),
    })
    print(f"minimizer is the constant density {float(w_star.values[0])!r} with energy {e_star!r}")
    return EXIT_OK


_SWEEP_KEYS = {"lambda": "lambda", "tau": "tau", "q": "entropy.q"}


def _sweep_entry(args):
    raw, base_dir, axis, value, out_dir = args
    raw = dict(raw)
    raw[_SWEEP_KEYS[axis]] = value
    if axis == "q":
        raw["entropy.family"] = "tsallis"
    cfg = resolve_config(raw, base_dir=Path(base_dir))
    summary = _execute_run(cfg, Path(out_dir))
    return value, summary


def cmd_sweep(raw_cfg: dict, base_dir: Path, axis: str, values: str,
              out_dir: Path, jobs: int) -> int:
    try:
        parsed = [float(v) for v in values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}") from exc
    if not parsed:
        raise ConfigError("sweep requires a non-empty list of values")
    if len(set(parsed)) < len(parsed):
        raise ConfigError(f"sweep values must be distinct, got {values!r}")
    _out_dir(out_dir)
    # each directory is named by the value's sweep.csv parameter text
    tasks = [(raw_cfg, str(base_dir), axis, v, str(out_dir / f"{axis}_{v!r}")) for v in parsed]
    if jobs > 1:
        pool_type = sys.modules[__name__].ProcessPoolExecutor  # imported here, see __getattr__
        # a fork pool starts all its workers at once, so start no idle ones
        with pool_type(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_sweep_entry, tasks))
    else:
        outcomes = [_sweep_entry(t) for t in tasks]
    lines = ["parameter,lambda_theory,fitted_rate,ratio"]
    for value, summary in outcomes:
        fitted = summary["fitted_rate"]
        theory = summary["lambda_theory"]
        ratio = fitted / theory if fitted is not None else math.nan
        fitted_txt = repr(fitted) if fitted is not None else "nan"
        lines.append(f"{value!r},{theory!r},{fitted_txt},{ratio!r}")
    write_text_atomic(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def __getattr__(name: str):
    """Import ``ProcessPoolExecutor`` on first use: only ``sweep --jobs N > 1``
    needs it, and ``concurrent.futures`` takes about 20 ms to import."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="Entropic gradient flow experiments: run, verify, and rate-fit.",
    )
    parser.add_argument("--config", required=True, help="path to a key=value or JSON config")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep entries")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="evolve the flow and write timeseries + summary")
    sub.add_parser("verify", help="run the invariant suite and report pass/fail")
    sub.add_parser("rate", help="re-fit the decay rate of an existing timeseries")
    sub.add_parser("minimizer", help="write the minimizing density and its energy")
    sweep = sub.add_parser("sweep", help="run one trajectory per parameter value")
    sweep.add_argument("--axis", required=True, choices=sorted(_SWEEP_KEYS))
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values, e.g. 0.5,1,2")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    0 is success and 1 a failed verification.  A ``ConfigError`` (invalid or
    unreadable config or dataset, unusable ``--out``, malformed
    ``timeseries.csv`` or ``summary.json``) exits 2; a ``SolverDiagnosticError``
    (an inner solve that does not converge or breaks down, or a state with no
    finite energy, in a sweep worker too) exits 3; each prints one stderr line here.  A failed rate
    fit in ``rate`` also exits 3.
    """
    args = build_parser().parse_args(argv)
    cfg_path, out_dir = Path(args.config), Path(args.out)
    try:
        raw = load_config_dict(cfg_path)
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = resolve_config(raw, base_dir=cfg_path.parent)
        if args.command == "sweep":
            return cmd_sweep(raw, cfg_path.parent, args.axis, args.values, out_dir, args.jobs)
        cmds = {"run": cmd_run, "verify": cmd_verify, "rate": cmd_rate, "minimizer": cmd_minimizer}
        return cmds[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverDiagnosticError as exc:
        print(f"solver diagnostic: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
