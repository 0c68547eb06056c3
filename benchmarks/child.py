"""Run ``entroflow.cli.main`` in this process with spans around layer calls.

    python3 benchmarks/child.py time SPANS CLI_ARGS...
        The command as a user runs it, with one span around the CLI's call
        to ``evolve``: the harness takes set-up time (process start to
        ``evolve`` entry) and the step rate (steps over the ``evolve`` span)
        from the real command, not from a copy of its set-up.

    python3 benchmarks/child.py trace SPANS RUN_ID CLI_ARGS...
        The same command with a span recorded around every call into the
        public functions of each package layer.

Spans stay in memory and are written to SPANS once, when the process ends.
They are read with ``time.monotonic`` (CLOCK_MONOTONIC on Linux), the clock
the harness reads when it starts this process, so that the two can be
subtracted.  Only the standard library is imported before ``cli.main`` runs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory spans: name, start, end, index of the parent span, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.monotonic(), "end": None,
                    "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.monotonic()
            if on_result is not None:
                on_result(result)
            return result
        return traced


def _count_operator(counts: dict):
    def record(op):
        counts["grid.nodes"] = op.grid.num_nodes
        counts["grid.nnz"] = int(op.stiffness.nnz)
    return record


def _count_config(counts: dict):
    def record(cfg):
        counts["record_every"] = cfg.record_every
    return record


def _trace_layers(tracer: Tracer, keep: dict) -> None:
    import entroflow
    from entroflow import analysis, cli, config, entropy, grid, potential, solver, verify

    # span name -> (defining module, function); each is rebound in every
    # module that imported it by name, so calls from any layer are seen
    functions = {
        "config.load_config_dict": (config, "load_config_dict", None),
        "config.resolve_config": (config, "resolve_config", _count_config(tracer.counts)),
        "grid.field_to_csv": (grid, "field_to_csv", None),
        "solver.init_state": (solver, "init_state", lambda state: keep.setdefault("state", state)),
        "solver.evolve": (solver, "evolve", None),
        "analysis.snapshot": (analysis, "snapshot", None),
        "analysis.compute_minimizer": (analysis, "compute_minimizer", None),
        "analysis.fit_decay_rate": (analysis, "fit_decay_rate", None),
        "entropy.check_assumptions": (entropy, "check_assumptions", None),
        "entropy.legendre_conjugate": (entropy, "legendre_conjugate", None),
        "verify.run_verification": (verify, "run_verification", None),
    }
    modules = [entroflow, analysis, cli, config, entropy, grid, potential, solver, verify]
    for name, (home, attr, on_result) in functions.items():
        original = getattr(home, attr)
        traced = tracer.wrap(name, original, on_result)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
    config.RunConfig.build_gibbs = tracer.wrap("potential.build_gibbs", config.RunConfig.build_gibbs)
    potential.GibbsField.operator = tracer.wrap(
        "grid.operator", potential.GibbsField.operator, _count_operator(tracer.counts))


def run(spans_path: str, run_id: str, cli_args: list[str], layers: bool) -> int:
    tracer = Tracer(run_id)
    keep: dict = {}
    try:
        from entroflow import cli, grid

        if layers:
            _trace_layers(tracer, keep)
        else:
            cli.evolve = tracer.wrap("solver.evolve", cli.evolve)
        rc = tracer.wrap("cli.main", cli.main)(cli_args)
        wrote_csv = any(s["name"] == "grid.field_to_csv" for s in tracer.spans)
        if layers and rc == 0 and cli_args[-1] == "run" and not wrote_csv and "state" in keep:
            # a workload without snapshots still reports what one costs on
            # its grid: one write of the initial density, outside cli.main
            out = Path(cli_args[cli_args.index("--out") + 1]) / "snapshot_probe.csv"
            grid.field_to_csv(keep["state"].w, out)
    finally:
        Path(spans_path).write_text(
            json.dumps({"spans": tracer.spans, "counts": tracer.counts}), encoding="utf-8")
    return rc


def main(argv: list[str]) -> int:
    if argv[:1] == ["time"] and len(argv) >= 3:
        return run(argv[1], "untraced", argv[2:], layers=False)
    if argv[:1] == ["trace"] and len(argv) >= 4:
        return run(argv[1], argv[2], argv[3:], layers=True)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
