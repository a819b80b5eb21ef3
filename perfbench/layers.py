"""Which public functions belong to which layer, and the per-layer report.

:func:`instrument` wraps the layer boundaries; :func:`layer_report`
turns one traced pass into the ``per_layer``
metrics (per-operation means) and a critical-path breakdown of the
operations' wall time by layer, whose remainder is the time no layer
span covers.
"""

from __future__ import annotations

import importlib
import os

from spans import Span, Tracer, self_times

#: Thread-name prefix of the service's per-job worker threads.
SERVICE_THREAD = "repro-service-"


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary; undo with ``tracer.restore()``."""
    # import_module, not ``from package import name``: some packages
    # re-export a function under its module's name.
    (sat_attack, compiled, netlist, opt, sharded, registry, engine, oracle,
     cache, executor, solver) = (
        importlib.import_module(f"repro.{name}") for name in (
            "attacks.sat_attack", "circuit.compiled", "circuit.netlist",
            "circuit.opt", "core.sharded", "locking.registry", "metrics.engine",
            "oracle.oracle", "runner.cache", "runner.executor", "sat.solver"))

    def make_solve(fn):
        def solve(self, *args, **kwargs):
            stats = self.stats
            before = (stats.propagations, stats.conflicts, stats.decisions)
            span, token = tracer.open("sat.solve")
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(span, token)
                span.counts = {
                    "sat.solve_calls": 1,
                    "sat.propagations": stats.propagations - before[0],
                    "sat.conflicts": stats.conflicts - before[1],
                    "sat.decisions": stats.decisions - before[2],
                }

        return solve

    def make_add_clause(fn):
        count = tracer.count

        def add_clause(self, lits):
            count("sat.clauses_added")
            return fn(self, lits)

        return add_clause

    def make_query(fn):
        def query(self, *args, **kwargs):
            before = self.query_count
            span, token = tracer.open("oracle.query")
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(span, token)
                span.add("oracle.queries", self.query_count - before)

        return query

    def make_invoke(fn):
        def invoke(task_fn, params):
            span, token = tracer.open("runner.task")
            try:
                return fn(task_fn, params)
            finally:
                tracer.close(span, token)
                tracer.dump_worker_spans()

        return invoke

    def encode_counts(span: Span, enc, _args) -> None:
        span.counts = {
            **(span.counts or {}),
            "attacks.encode_vars": enc.base_vars,
            "attacks.encode_clauses": enc.base_clauses,
        }

    def store_counts(span: Span, path, _args) -> None:
        if path is not None and os.path.exists(path):
            span.add("runner.cache_bytes_written", os.path.getsize(path))

    timed = tracer.timed
    tracer.wrap(solver.Solver, "solve", make_solve)
    tracer.wrap(solver.Solver, "add_clause", make_add_clause)
    tracer.wrap(sat_attack, "build_miter_encoding", timed("attacks.encode", encode_counts))
    tracer.wrap(sat_attack, "run_dip_loop", timed(
        "attacks.dip_loop", lambda span, res, _a: span.add("attacks.dips", res.num_dips)))
    tracer.wrap(netlist.Netlist, "compile", timed("circuit.compile"))
    tracer.wrap(opt, "optimize_compiled", timed("circuit.opt"))
    tracer.wrap(compiled.CompiledCircuit, "eval_words", timed("circuit.eval"))
    tracer.wrap(compiled.CompiledCircuit, "eval_outputs_wide", timed("circuit.eval"))
    for name in ("query", "query_int", "query_batch", "query_vector"):
        tracer.wrap(oracle.Oracle, name, make_query)
    tracer.wrap(sharded.ShardEngine, "__init__", timed("core.shard_encode"))
    tracer.wrap(sharded.ShardEngine, "run_shard", timed("core.shard"))
    tracer.wrap(sharded.ShardEngine, "export_warm_clauses", timed(
        "core.export", lambda span, res, _a: span.add("core.warm_clauses", len(res))))
    tracer.wrap(executor.Runner, "run_iter", tracer.timed_generator("runner.run"))
    tracer.wrap(executor, "_invoke", make_invoke)
    tracer.wrap(cache.ResultCache, "load", timed(
        "runner.cache_load",
        lambda span, res, _a: span.add(
            "runner.cache_misses" if res is None else "runner.cache_hits")))
    tracer.wrap(cache.ResultCache, "store", timed("runner.cache_store", store_counts))
    tracer.wrap(engine, "build_sweep", timed(
        "metrics.sweep",
        lambda span, res, _a: span.add(
            "metrics.lane_evals", (len(res[0].wrong_keys) + 1) * res[0].width)))
    tracer.wrap(registry, "lock_circuit", timed("locking.lock"))


def _owner_op(spans: list[Span], ops_by_sid: dict, ops_by_job: dict) -> dict:
    """Span id -> the operation (op span id) it worked for, if any.

    A span belongs to the op span at the root of its parent chain; the
    root of a service job thread belongs to the op that submitted that
    job; worker spans reach their op through the dispatching span.
    """
    by_id = {span.sid: span for span in spans}
    owner: dict[int, int | None] = {}
    for span in spans:
        chain = []
        node = span
        result = None
        while node is not None:
            if node.sid in owner:
                result = owner[node.sid]
                break
            chain.append(node.sid)
            if node.sid in ops_by_sid:
                result = node.sid
                break
            parent = by_id.get(node.parent)
            if parent is None and node.thread.startswith(SERVICE_THREAD):
                result = ops_by_job.get(node.thread[len(SERVICE_THREAD):])
            node = parent
        for sid in chain:
            owner[sid] = result
    return owner


def layer_report(
    tracer: Tracer, ops: list[dict], setups: int, service: dict | None = None
) -> tuple[dict, dict]:
    """The ``per_layer`` metrics and the critical-path breakdown.

    ``ops`` are the workload's operation records; each has ``sid`` (its
    op span) and ``wall``, and service jobs also ``job_id`` plus the
    ``queued``/``transport`` seconds the client measured.  ``service``
    holds the service-layer totals (queued, run, events, transport).
    Metrics are means per operation, except ``core.shard_s_max`` (the
    slowest shard) and ``locking.lock_s`` (per set-up).
    """
    spans = tracer.spans
    main = tracer.main_pid
    ops_by_sid = {op["sid"]: op for op in ops}
    ops_by_job = {op["job_id"]: op["sid"] for op in ops if op.get("job_id")}
    owner = _owner_op(spans, ops_by_sid, ops_by_job)
    own = [s for s in spans if owner.get(s.sid) is not None and not s.name.startswith("op.")]
    selfs = self_times(spans)
    n = max(1, len(ops))

    totals: dict[str, float] = {}
    for span in own:
        for name, value in (span.counts or {}).items():
            totals[name] = totals.get(name, 0) + value

    def total(name: str, field: str = "self") -> float:
        return sum(
            selfs[s.sid] if field == "self" else s.duration
            for s in own if s.name == name
        )

    by_id = {s.sid: s for s in own}

    def calls(name: str) -> int:
        """Calls of ``name`` not nested in another call of ``name``."""
        return sum(
            1 for s in own
            if s.name == name and getattr(by_id.get(s.parent), "name", "") != name
        )

    # Worker task time per dispatching run and process.
    task_time: dict[int, dict[int, float]] = {}
    for span in own:
        if span.name == "runner.task" and span.parent is not None:
            per_pid = task_time.setdefault(span.parent, {})
            per_pid[span.pid] = per_pid.get(span.pid, 0.0) + span.duration
    runs = [s for s in own if s.name == "runner.run"]
    overhead = sum(
        max(0.0, r.duration - max(task_time.get(r.sid, {}).values(), default=0.0))
        for r in runs
    )
    shards = [s for s in own if s.name == "core.shard"]
    service = service or {}

    metrics = {
        "sat.solve_s": total("sat.solve"),
        "sat.solve_calls": totals.get("sat.solve_calls", 0),
        "sat.propagations": totals.get("sat.propagations", 0),
        "sat.conflicts": totals.get("sat.conflicts", 0),
        "sat.decisions": totals.get("sat.decisions", 0),
        "sat.clauses_added": totals.get("sat.clauses_added", 0),
        "attacks.encode_s": total("attacks.encode"),
        "attacks.encode_vars": totals.get("attacks.encode_vars", 0),
        "attacks.encode_clauses": totals.get("attacks.encode_clauses", 0),
        "attacks.dips": totals.get("attacks.dips", 0),
        "attacks.dip_loop_self_s": total("attacks.dip_loop"),
        "circuit.compile_calls": calls("circuit.compile"),
        "circuit.compile_s": total("circuit.compile"),
        "circuit.opt_calls": calls("circuit.opt"),
        "circuit.opt_s": total("circuit.opt"),
        "circuit.eval_calls": calls("circuit.eval"),
        "circuit.eval_s": total("circuit.eval"),
        "oracle.queries": totals.get("oracle.queries", 0),
        "oracle.query_s": total("oracle.query"),
        "core.shard_encode_s": total("core.shard_encode", "wall"),
        "core.pilot_s": sum(s.duration for s in shards if s.pid == main),
        "core.shard_s_sum": total("core.shard", "wall"),
        "core.warm_clauses": totals.get("core.warm_clauses", 0),
        "runner.tasks": calls("runner.task"),
        "runner.task_s_sum": total("runner.task", "wall"),
        "runner.overhead_s": overhead,
        "runner.cache_hits": totals.get("runner.cache_hits", 0),
        "runner.cache_misses": totals.get("runner.cache_misses", 0),
        "runner.cache_load_s": total("runner.cache_load", "wall"),
        "runner.cache_store_s": total("runner.cache_store", "wall"),
        "runner.cache_bytes_written": totals.get("runner.cache_bytes_written", 0),
        "metrics.sweep_s": total("metrics.sweep"),
        "metrics.lane_evals": totals.get("metrics.lane_evals", 0),
        "service.queued_s": service.get("queued", 0.0),
        "service.run_s": service.get("run", 0.0),
        "service.events": service.get("events", 0),
        "service.transport_s": service.get("transport", 0.0),
    }
    metrics = {name: value / n for name, value in metrics.items()}
    metrics["core.shard_s_max"] = max((s.duration for s in shards), default=0.0)
    metrics["locking.lock_s"] = sum(
        s.duration for s in spans if s.name == "locking.lock"
    ) / max(1, setups)
    return metrics, _critical_path(spans, own, selfs, task_time, ops, main)


def _critical_path(spans, own, selfs, task_time, ops, main) -> dict:
    """Split the ops' wall time over span names along the blocking path.

    Work in the benchmark process counts by self time.  A run that
    waited on pool workers counts the busiest worker's spans in place of
    the wait (scaled to the wait), and the rest of the wait as runner
    overhead.  What is left of each op's wall time is ``uncovered``.
    """
    # Worker spans by (dispatching run, worker process), found through
    # each span's task root.
    worker_spans: dict[tuple[int, int], list[Span]] = {}
    by_id = {s.sid: s for s in spans}
    for span in own:
        if span.pid != main:
            node = span
            while node.name != "runner.task" and by_id.get(node.parent) is not None:
                node = by_id[node.parent]
            worker_spans.setdefault((node.parent, span.pid), []).append(span)

    split: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        split[name] = split.get(name, 0.0) + value

    for span in own:
        if span.pid != main:
            continue
        value = selfs[span.sid]
        if span.name == "runner.run":
            external = {
                pid: t for pid, t in task_time.get(span.sid, {}).items() if pid != main
            }
            if external:
                pid = max(external, key=external.get)
                waited = min(value, external[pid])
                scale = waited / external[pid] if external[pid] else 0.0
                for worker_span in worker_spans.get((span.sid, pid), []):
                    add(worker_span.name, selfs[worker_span.sid] * scale)
                value -= waited
        add(span.name, value)
    wall = sum(op["wall"] for op in ops)
    service = sum(op.get("queued", 0.0) + op.get("transport", 0.0) for op in ops)
    if service:
        add("service.queued+transport", service)
    covered = sum(split.values())
    shares = {name: value / wall for name, value in sorted(split.items())} if wall else {}
    layers: dict[str, float] = {}
    for name, share in shares.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + share
    return {
        "ops_wall_s": wall,
        "uncovered_s": max(0.0, wall - covered),
        "uncovered_frac": max(0.0, wall - covered) / wall if wall else 0.0,
        "layer_share": layers,
        "span_share": shares,
    }
