"""Command-line orchestration: run, verify, rate, minimizer, sweep.

Exit codes: 0 success, 1 failed verification, 2 configuration errors,
3 solver diagnostics.  All artifacts are written atomically (temp file then
rename) so an aborted command never leaves partial output behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .analysis import (
    EnergyRecord,
    compute_minimizer,
    fit_decay_rate,
    lambda_rate,
    snapshot,
)
from .config import ConfigError, RunConfig, load_config_dict, resolve_config
from .grid import field_to_csv
from .solver import SolverDiagnosticError, evolve, init_state, solver_backend
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_timeseries(path: Path, records: list[EnergyRecord]) -> None:
    lines = ["t,energy,fisher,mass,w_min,w_max"]
    for r in records:
        lines.append(f"{r.t!r},{r.energy!r},{r.fisher!r},{r.mass!r},{r.w_min!r},{r.w_max!r}")
    _atomic_write(path, "\n".join(lines) + "\n")


def read_timeseries(path: Path) -> list[EnergyRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expected = ["t", "energy", "fisher", "mass", "w_min", "w_max"]
        if header != expected:
            raise ConfigError(f"{path}: expected columns {expected}, got {header}")
        for line in fh:
            if line.strip():
                t, e, f, m, lo, hi = (float(v) for v in line.split(","))
                records.append(EnergyRecord(t=t, energy=e, fisher=f, mass=m, w_min=lo, w_max=hi))
    return records


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _execute_run(cfg: RunConfig, out_dir: Path) -> dict:
    """Run one trajectory and write timeseries.csv / summary.json into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    gen = cfg.entropy_generator()
    gibbs = cfg.build_gibbs()
    grid = gibbs.grid
    state = init_state(gibbs, cfg.initial_density(grid, gibbs))

    records: list[EnergyRecord] = []

    def observer(t, w):
        records.append(snapshot(t, w, gibbs, gen))
        if cfg.snapshot_every > 0 and (len(records) - 1) % cfg.snapshot_every == 0:
            field_to_csv(w, out_dir / f"w_t{t:.6g}.csv")

    final, steps = evolve(state, cfg.solver_config(), observer=observer)
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
        "M": gibbs.m_grid,
        "M_grid": gibbs.m_grid,
        "M_envelope": gibbs.m_envelope,
        "Z": gibbs.Z,
        "Z_raw": gibbs.Z_raw,
        "normalized": gibbs.normalized,
        "lambda_theory": theory,
        "E_star": e_star,
        "E_initial": records[0].energy if records else None,
        "fitted_rate": fitted,
        "fit_residual": resid,
        "fit_window": window,
        "steps": steps,
        "solver_backend": solver_backend(gibbs.operator()),
        "t_final": final.t,
        "wall_time_s": time.perf_counter() - started,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    try:
        summary = _execute_run(cfg, out_dir)
    except SolverDiagnosticError as exc:
        print(f"solver diagnostic: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    rate = summary["fitted_rate"]
    rate_txt = f"{rate:.6f}" if rate is not None else "n/a"
    print(f"run complete: {summary['steps']} steps ({summary['solver_backend']}), "
          f"fitted rate {rate_txt}, guaranteed rate {summary['lambda_theory']:.6f}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    try:
        results = run_verification(cfg)
    except SolverDiagnosticError as exc:
        print(f"solver diagnostic: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out_dir.mkdir(parents=True, exist_ok=True)
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
    ts_path = out_dir / "timeseries.csv"
    if not ts_path.exists():
        print(f"no timeseries.csv in {out_dir}; run the 'run' command first", file=sys.stderr)
        return EXIT_CONFIG
    records = read_timeseries(ts_path)
    summary_path = out_dir / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        e_star, theory = summary["E_star"], summary["lambda_theory"]
    else:
        gibbs = cfg.build_gibbs()
        _, e_star = compute_minimizer(gibbs, cfg.entropy_generator())
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
    out_dir.mkdir(parents=True, exist_ok=True)
    gibbs = cfg.build_gibbs()
    gen = cfg.entropy_generator()
    w_star, e_star = compute_minimizer(gibbs, gen)
    field_to_csv(w_star, out_dir / "minimizer.csv")
    _write_json(out_dir / "minimizer.json", {
        "E_star": e_star, "Z": gibbs.Z, "normalized": gibbs.normalized,
        "constant_value": float(w_star.values[0]),
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


def cmd_sweep(raw_cfg: dict, base_dir: Path, axis: str, values: list[float],
              out_dir: Path, jobs: int) -> int:
    if axis not in _SWEEP_KEYS:
        print(f"sweep axis must be one of {sorted(_SWEEP_KEYS)}, got {axis!r}", file=sys.stderr)
        return EXIT_CONFIG
    if not values:
        print("sweep requires a non-empty list of values", file=sys.stderr)
        return EXIT_CONFIG
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(raw_cfg, str(base_dir), axis, v, str(out_dir / f"{axis}_{v:g}")) for v in values]
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(_sweep_entry, tasks))
        else:
            outcomes = [_sweep_entry(t) for t in tasks]
    except SolverDiagnosticError as exc:
        print(f"solver diagnostic: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    lines = ["parameter,lambda_theory,fitted_rate,ratio"]
    for value, summary in outcomes:
        fitted = summary["fitted_rate"]
        theory = summary["lambda_theory"]
        ratio = fitted / theory if fitted is not None else math.nan
        fitted_txt = repr(fitted) if fitted is not None else "nan"
        lines.append(f"{value!r},{theory!r},{fitted_txt},{ratio!r}")
    _atomic_write(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


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
    args = build_parser().parse_args(argv)
    try:
        cfg_path = Path(args.config)
        raw = load_config_dict(cfg_path)
        if args.seed is not None:
            raw = dict(raw)
            raw["seed"] = args.seed
        cfg = resolve_config(raw, base_dir=cfg_path.parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)

    try:
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "rate":
            return cmd_rate(cfg, out_dir)
        if args.command == "minimizer":
            return cmd_minimizer(cfg, out_dir)
        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                print(f"config error: bad sweep values: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            return cmd_sweep(raw, cfg_path.parent, args.axis, values, out_dir, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
