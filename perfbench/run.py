#!/usr/bin/env python3
"""The repository benchmark: one workload per run, checked, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sarlock_dip --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same seed twice, untraced and then traced,
checks that every exact counter repeats, and prints the per-layer
metrics; its info line also carries the tracing overhead (traced minus
untraced, per end-to-end metric) and the critical-path split of the
operations' wall time by layer.  The last line of standard output is
the result object; the line before it is an ``info`` object with the
run's stamp and details.  Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

#: Process-wide levers the benchmark must not inherit from the caller.
LEVER_ENV = ("REPRO_OPT", "REPRO_LANES", "REPRO_SOLVER", "REPRO_CACHE_BACKEND", "REPRO_FULL")

#: Set-ups per pass; ``setup_s`` is their median.
SETUPS = 11

#: The traced run fails when more than this share of the operations'
#: wall time lies outside every layer span.
MAX_UNCOVERED = 0.10

#: The ROADMAP's cProfile split of ``sat_attack(real_c880 + sarlock k=8)``.
ROADMAP_SPLIT = {"solve": 0.55, "copy_encoding": 0.19, "sim_and_oracle": 0.03}


def stamp(levers: dict, cleared: dict) -> dict:
    """What ran: source identity, interpreter, CPUs, optional deps, levers."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "pysat": importlib.util.find_spec("pysat") is not None,
        "levers": levers,
        "cleared_env": sorted(cleared),
    }


def resolved_levers(workload) -> dict:
    from repro.circuit.lanes import default_lanes, numpy_available
    from repro.circuit.opt import resolve_opt
    from repro.runner.backends import resolve_cache_backend_name
    from repro.sat.registry import resolve_solver_name

    return {
        "opt": resolve_opt(None),
        "lanes": default_lanes() + (" (numpy)" if numpy_available() else " (python)"),
        "solver": resolve_solver_name(None),
        "cache_backend": "directory" if workload.name == "matrix_service"
        else f"none ({resolve_cache_backend_name(None)} default)",
    }


def run_pass(workload, seed: int, seconds: float, tracer) -> dict:
    """Set up ``SETUPS`` times, run the closed loop once, then check."""
    from clocks import SpeedSampler, cpu_s, host_probe, lend_clocks, scale_between
    from layers import instrument

    if tracer is not None:
        instrument(tracer)
    setup_s, ctx = [], None
    restore_clocks = lend_clocks()
    try:
        for _ in range(SETUPS):
            if ctx is not None:
                workload.teardown(ctx)
                ctx = None
            gc.collect()  # each set-up starts from the same heap state
            before, start = host_probe(), cpu_s()
            ctx = workload.setup(seed, seconds)
            setup_s.append((cpu_s() - start) * scale_between(before))
        with SpeedSampler() as speed:
            ops = workload.measure(ctx, seconds, tracer)
        speed.apply(ops)
    finally:
        restore_clocks()
        if tracer is not None:
            tracer.restore()
        if ctx is not None:
            workload.teardown(ctx)
    if tracer is not None:
        tracer.collect_spool()
    workload.verify(ctx, ops)
    errors = [op["error"] for op in ops if op.get("error")]
    metrics = {}
    if ops and not errors:
        metrics = workload.metrics(ops)
    metrics["setup_s"] = statistics.median(setup_s)
    return {
        "ops": ops, "metrics": metrics, "errors": errors,
        "counters": {workload.counters(op)[0]: workload.counters(op) for op in ops},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sarlock_dip", "lut_multikey", "matrix_service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cleared = {name: os.environ.pop(name) for name in LEVER_ENV if name in os.environ}
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from layers import layer_report
    from spans import Tracer

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        workload = {
            "sarlock_dip": workloads.SarlockDip,
            "lut_multikey": workloads.LutMultikey,
            "matrix_service": lambda: workloads.MatrixService(scratch),
        }[args.workload]()
        info = {"workload": args.workload, "seed": args.seed,
                "stamp": stamp(resolved_levers(workload), cleared)}
        passes = [run_pass(workload, args.seed, args.seconds, None)]
        if args.trace:
            spool = scratch / "spool"
            spool.mkdir()
            tracer = Tracer(spool)
            passes.append(run_pass(workload, args.seed, args.seconds, tracer))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run shares it

    rss = peak_rss_mb()
    errors = []  # run-level check failures, on top of failed operations
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    for p in passes:
        p["metrics"]["peak_rss_mb"] = rss
    info["ops"] = [len(p["ops"]) for p in passes]
    # Above 1 when the host took CPU away (or the ops waited).
    info["wall_over_cpu"] = (sum(op["wall"] for op in passes[0]["ops"])
                             / max(1e-9, sum(op["cpu"] for op in passes[0]["ops"])))
    untraced = passes[0]
    if args.trace:
        traced = passes[1]
        common = untraced["counters"].keys() & traced["counters"].keys()
        mismatched = sorted(k for k in common if untraced["counters"][k] != traced["counters"][k])
        if not common or mismatched:
            errors.append(f"exact counters differ between untraced and traced runs: "
                          f"{len(mismatched)} of {len(common)} operations")
        info["counters_compared"] = len(common)
        info["tracing_overhead"] = {
            name: traced["metrics"][name] - value
            for name, value in untraced["metrics"].items() if name in traced["metrics"]
        }
        service = (workloads.MatrixService.service_totals(traced["ops"])
                   if args.workload == "matrix_service" else None)
        per_layer, split = layer_report(tracer, traced["ops"], SETUPS, service)
        info["critical_path"] = split
        if split["uncovered_frac"] > MAX_UNCOVERED:
            errors.append(f"layer spans cover only {1 - split['uncovered_frac']:.1%} "
                          f"of the operations' wall time")
        if args.workload == "sarlock_dip":
            share = split["span_share"]
            info["split_vs_roadmap"] = {
                "measured": {
                    "solve": share.get("sat.solve", 0.0),
                    "copy_encoding": share.get("attacks.dip_loop", 0.0),
                    "sim_and_oracle": share.get("circuit.eval", 0.0) + share.get("oracle.query", 0.0),
                },
                "roadmap_cprofile": ROADMAP_SPLIT,
            }
        values, section = per_layer, "per_layer"
    else:
        values, section = untraced["metrics"], "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[section] if m["name"] in values}
    if args.workload == "lut_multikey" and "baseline_s_p50" in untraced["metrics"]:
        m = untraced["metrics"]
        info["max_shard_over_baseline"] = {
            "ratio": m["max_shard_s_p50"] / m["baseline_s_p50"],
            "max_shard_s_p50": m["max_shard_s_p50"],
            "baseline_s_p50": m["baseline_s_p50"],
        }
    info["errors"] = [e for p in passes for e in p["errors"]][:10] + errors
    ok = not errors and not failed
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
