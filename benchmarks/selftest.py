"""Fast self-test of the benchmark harness (about 10 s).

    python3 benchmarks/selftest.py

Runs the harness on a tiny generated 1-d OU config, with tracing off and
on, and checks that every metric BENCHMARK.json names is emitted with its
unit and that the run is counted as correct.  Then runs a config whose
dataset file is missing, which the CLI rejects with exit code 2, and checks
that those operations are counted as failed.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

TINY_OU = {
    "lambda": 1.0, "tau": 1.0, "entropy.family": "shannon",
    "grid.dim": 1, "grid.lo": [-6.0], "grid.hi": [6.0], "grid.n": [61],
    "solver.dt": 1e-2, "solver.t_final": 3.0, "solver.record_every": 2,
    "initial.kind": "gaussian", "initial.mean": [bench.OU_M0], "initial.stdev": 1.0,
}


def _write(settings: dict):
    def write_config(work: Path, seed: int) -> Path:
        path = work / "tiny.toml"
        path.write_text(bench._config_text({**settings, "seed": seed}), encoding="utf-8")
        return path
    return write_config


TINY = bench.Workload("tiny_ou", _write(TINY_OU), bench._check_ou(1))
BROKEN = bench.Workload("broken", _write({**TINY_OU, "dataset": "missing.csv"}), bench._check_ou(1))


def measure(workload: bench.Workload, trace: bool) -> tuple[bench.Bench, dict]:
    with tempfile.TemporaryDirectory(prefix="work-", dir=bench.BENCH_DIR) as tmp:
        run = bench.Bench(workload, seed=1, work=Path(tmp))
        run.measure(seconds=0.1, trace=trace)
        return run, run.metrics(trace)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        check(declared == table, f"BENCHMARK.json {key} matches the harness's metric table")

    for key, trace in (("end_to_end", False), ("per_layer", True)):
        run, metrics = measure(TINY, trace)
        check(run.failed == 0 and run.attempted > 0,
              f"tiny run (trace {int(trace)}): {run.failed} of {run.attempted} operations failed")
        for m in spec[key]:
            got = metrics.get(m["name"])
            check(got is not None and got["unit"] == m["unit"]
                  and isinstance(got["value"], (int, float)),
                  f"trace {int(trace)} emits {m['name']} in {m['unit']}: {got}")

    run, _ = measure(BROKEN, trace=False)
    share = run.failed / run.attempted
    check(share > 0 and any("exit code 2" in p for p in run.problems),
          f"missing dataset counted in fail_share = {share:.3f} ({run.failed} of {run.attempted})")

    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
