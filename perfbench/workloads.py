"""The three workloads: inputs from a seed, a timed closed loop, checks.

Each workload class has ``setup(seed, seconds)`` (makes every input;
repeated several times per run, so it must be self-contained),
``measure(ctx, seconds, tracer)`` (the closed loop; one record per
operation, each inside an ``op.*`` span when traced), ``verify`` (the
correctness checks, run after the loop and outside every timed
interval), ``counters`` (the exact per-operation counts that must
repeat on one seed; the first names the operation) and
``metrics`` (every end-to-end metric).

Every loop visits a small fixed roster of inputs over and over, in an
order the seed picks, and every unit of work in it is deterministic
(the exact counters repeat, and ``verify`` checks that they do).  A
unit's time is the median of its repeats in the run, in CPU seconds at
the reference host speed (see ``clocks``); ``p50``/``p90`` are
percentiles across units.  Every workload reports every end-to-end
metric; where it has no operation of a metric's own kind, the metric
reads the nearest operation it has (the table is in
``perfbench/README.md``).
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import importlib
import itertools
import json
import random
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

from clocks import cpu_s
from repro.bench_circuits.corpus import resolve_circuit
from repro.circuit.equivalence import check_equivalence
from repro.core.compose import verify_composition
from repro.core.splitting import select_splitting_inputs
from repro.locking.lut_lock import LutModuleSpec
from repro.oracle.oracle import Oracle

# Called through their modules, so the traced run's wrappers apply.
sat_attack_mod = importlib.import_module("repro.attacks.sat_attack")
sharded = importlib.import_module("repro.core.sharded")
registry = importlib.import_module("repro.locking.registry")


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def per_unit(pairs) -> dict:
    """``(unit, seconds)`` pairs -> each unit's median over its repeats."""
    repeats: dict = {}
    for unit, seconds in pairs:
        repeats.setdefault(unit, []).append(seconds)
    return {unit: statistics.median(values) for unit, values in repeats.items()}


def _op_span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _run_op(tracer, name: str, fn):
    """``fn()`` inside an ``op.*`` span, and its timing record.

    ``SpeedSampler.apply`` later adds ``s``, its CPU seconds at the
    reference host speed, and ``scale``, the factor that took it there.
    """
    with _op_span(tracer, name) as span:
        t0, cpu = time.perf_counter(), cpu_s()
        result = fn()
        t1, cpu = time.perf_counter(), cpu_s() - cpu
    return result, {"t0": t0, "t1": t1, "wall": t1 - t0, "cpu": cpu,
                    "sid": getattr(span, "sid", None)}


def _cec(netlist, original) -> bool:
    return bool(check_equivalence(netlist, original))


class SarlockDip:
    """Serial single-key SAT attacks on SARLock k=8 locks (the conventional attack)."""

    name = "sarlock_dip"
    circuits = ("real_c880", "real_c432")
    lock_seeds = (1, 2)
    key_size = 8

    def setup(self, seed: int, seconds: float) -> dict:
        locks = []
        for name in self.circuits:
            net = resolve_circuit(name)
            oracle = Oracle(net)
            for lock_seed in self.lock_seeds:
                locks.append({
                    "circuit": name, "original": net, "oracle": oracle,
                    "id": f"{name}/{lock_seed}",
                    "locked": registry.lock_circuit(
                        "sarlock", net, key_size=self.key_size, seed=lock_seed),
                })
        random.Random(f"{self.name}/{seed}").shuffle(locks)
        return {"locks": locks}

    def teardown(self, ctx: dict) -> None:
        pass

    def measure(self, ctx: dict, seconds: float, tracer) -> list[dict]:
        ops = []
        deadline = time.perf_counter() + seconds
        for lock in itertools.cycle(ctx["locks"]):
            if time.perf_counter() >= deadline:
                break
            result, timing = _run_op(tracer, "op.attack", lambda: sat_attack_mod.sat_attack(
                lock["locked"], lock["oracle"]))
            ops.append({
                "lock": lock, "id": lock["id"], "circuit": lock["circuit"], **timing,
                "result": result,
                "dip_s": [it.elapsed_seconds for it in result.iterations],
            })
        return ops

    def verify(self, ctx: dict, ops: list[dict]) -> None:
        proven: dict[str, list] = {}  # a repeat must match the proven visit
        for op in ops:
            result, lock = op["result"], op["lock"]
            if result.status != "ok" or result.key is None:
                op["error"] = f"attack status {result.status}"
            elif result.num_dips != (1 << self.key_size) - 1:
                op["error"] = f"{result.num_dips} DIPs, expected {(1 << self.key_size) - 1}"
            elif op["id"] in proven:
                if proven[op["id"]] != self.counters(op) + [result.key_int]:
                    op["error"] = "a repeated attack gave other counters or key"
            elif not _cec(lock["locked"].apply_key(result.key), lock["original"]):
                op["error"] = "recovered key is not equivalent to the original"
            else:
                proven[op["id"]] = self.counters(op) + [result.key_int]

    def counters(self, op: dict) -> list:
        r = op["result"]
        return [op["id"], r.num_dips, r.oracle_queries,
                r.solver_stats["propagations"], r.solver_stats["conflicts"],
                r.encode_stats["vars"], r.encode_stats["clauses"]]

    def metrics(self, ops: list[dict]) -> dict:
        attack = per_unit((op["id"], op["s"]) for op in ops)
        dips = list(per_unit(((op["id"], i), s * op["scale"])
                            for op in ops for i, s in enumerate(op["dip_s"])).values())
        attack_s = statistics.median(attack.values())
        return {
            "attack_s_p50": attack_s,
            "baseline_s_p50": attack_s,
            "unlock_s_p50": attack_s,
            "max_shard_s_p50": attack_s,
            "cold_job_s_p50": attack_s,
            "cold_cells_per_s": len(attack) / sum(attack.values()),
            "warm_job_s_p50": percentile(dips, 50),
            "warm_job_s_p90": percentile(dips, 90),
        }


class LutMultikey:
    """The paper's multi-key unlock versus the single-key baseline on LUT locks.

    One lock per circuit, visited over and over in an order the seed
    picks: one LUT lock's unlock time varies about 3x with its lock
    seed, so locks drawn from the seed made the time metrics spread
    45-95% between runs, and a run fits only about a dozen unlocks.
    """

    name = "lut_multikey"
    circuits = (("real_c880", 1.0), ("c1908", 0.4))
    lock_seed = 1
    effort = 4

    def setup(self, seed: int, seconds: float) -> dict:
        spec = LutModuleSpec.paper_scale()
        locks = []
        for name, scale in self.circuits:
            net = resolve_circuit(name, scale)
            locks.append({
                "circuit": name, "original": net, "id": f"{name}/{self.lock_seed}",
                "locked": registry.lock_circuit("lut", net, spec=spec, seed=self.lock_seed),
            })
        random.Random(f"{self.name}/{seed}").shuffle(locks)
        return {"locks": locks}

    def teardown(self, ctx: dict) -> None:
        pass

    def measure(self, ctx: dict, seconds: float, tracer) -> list[dict]:
        ops = []
        deadline = time.perf_counter() + seconds
        for lock in itertools.cycle(ctx["locks"]):
            if time.perf_counter() >= deadline:
                break
            locked, original = lock["locked"], lock["original"]
            unlock, timing = _run_op(tracer, "op.unlock", lambda: sharded.sharded_multikey_attack(
                locked, original, effort=self.effort, parallel=True, processes=2))
            ops.append({"lock": lock, "id": lock["id"], "kind": "unlock", **timing,
                        "result": unlock})
            baseline, timing = _run_op(tracer, "op.baseline", lambda: sat_attack_mod.sat_attack(
                locked, Oracle(original)))
            ops.append({"lock": lock, "id": lock["id"], "kind": "baseline", **timing,
                        "result": baseline})
        return ops

    def verify(self, ctx: dict, ops: list[dict]) -> None:
        proven: dict[str, list] = {}  # a repeat must match the proven visit
        for op in ops:
            result, lock = op["result"], op["lock"]
            key = f"{op['id']}/{op['kind']}"
            if result.status != "ok":
                op["error"] = f"{op['kind']} status {result.status}"
            elif key in proven:
                if proven[key] != self.counters(op) + [self._keys(op)]:
                    op["error"] = "a repeated attack gave other counters or keys"
            elif op["kind"] == "unlock" and len(result.subtasks) != 1 << self.effort:
                op["error"] = f"{len(result.subtasks)} sub-tasks"
            elif op["kind"] == "unlock" and not verify_composition(
                    lock["locked"], result.splitting_inputs, result.keys, lock["original"]):
                op["error"] = "composed multi-key netlist is not equivalent"
            elif op["kind"] == "baseline" and not _cec(
                    lock["locked"].apply_key(result.key), lock["original"]):
                op["error"] = "baseline key is not equivalent to the original"
            else:
                proven[key] = self.counters(op) + [self._keys(op)]

    @staticmethod
    def _keys(op: dict) -> list:
        result = op["result"]
        return result.key_ints if op["kind"] == "unlock" else [result.key_int]

    def counters(self, op: dict) -> list:
        r = op["result"]
        if op["kind"] == "unlock":
            stats = r.solver_stats
            return [f"{op['id']}/unlock", r.total_dips,
                    r.dips_per_task, stats.get("propagations"), stats.get("conflicts"),
                    sum(t.oracle_queries for t in r.subtasks)]
        return [f"{op['id']}/baseline", r.num_dips,
                r.oracle_queries, r.solver_stats["propagations"],
                r.solver_stats["conflicts"], r.encode_stats["vars"],
                r.encode_stats["clauses"]]

    def metrics(self, ops: list[dict]) -> dict:
        unlocks = [op for op in ops if op["kind"] == "unlock"]
        unlock = per_unit((op["id"], op["s"]) for op in unlocks)
        baseline = per_unit((op["id"], op["s"]) for op in ops if op["kind"] == "baseline")
        shard = per_unit(((op["id"], t.index), t.elapsed_seconds)
                        for op in unlocks for t in op["result"].subtasks)
        primed = [s for (_, index), s in shard.items() if index]
        baseline_s = statistics.median(baseline.values())
        return {
            "attack_s_p50": baseline_s,
            "baseline_s_p50": baseline_s,
            "unlock_s_p50": statistics.median(unlock.values()),
            "max_shard_s_p50": statistics.median(
                max(s for (lock_id, _), s in shard.items() if lock_id == lock)
                for lock in unlock),
            "cold_job_s_p50": statistics.median(shard[lock, 0] for lock in unlock),
            "cold_cells_per_s": (1 << self.effort) * len(unlock) / sum(unlock.values()),
            "warm_job_s_p50": percentile(primed, 50),
            "warm_job_s_p90": percentile(primed, 90),
        }


class MatrixService:
    """Cold then warm single-cell matrix jobs through the HTTP gateway.

    One client, so one job runs at a time and the process's CPU time
    over a job is that job's.  The run goes in rounds: the cache is
    emptied, every request of a fixed roster is sent once cold (each a
    cache miss), then once warm (each served from the cache), both in
    an order the seed picks.  Rounds repeat until the run's time is up.
    """

    name = "matrix_service"
    schemes = ("sarlock", "xor", "antisat")
    efforts = (0, 2)
    circuits = ("c880", "real_c432")
    scale = 0.3
    key_size = 4
    lock_seeds = (1, 2, 3, 4, 5)
    min_rounds = 2  # 2 x 60 warm jobs, at least the 100 asked for
    metric_names = ("corruption", "bit_flip", "avalanche", "subspace")

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def setup(self, seed: int, seconds: float) -> dict:
        from repro.runner.cache import ResultCache
        from repro.service.envelopes import SCHEMA_VERSION
        from repro.service.http import create_http_server
        from repro.service.jobs import Service

        requests = [
            {
                "schema_version": SCHEMA_VERSION, "kind": "matrix",
                "schemes": [[scheme, {"key_size": self.key_size}]],
                "attacks": [["sat", {}]], "engines": ["sharded"],
                "circuits": [circuit], "scale": self.scale,
                "efforts": [effort], "seeds": [lock_seed],
                "metrics": list(self.metric_names), "key_samples": 64,
            }
            for scheme in self.schemes for effort in self.efforts
            for circuit in self.circuits for lock_seed in self.lock_seeds
        ]
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        cache = ResultCache(cache_dir, backend="directory")
        server = create_http_server(Service(jobs=2, cache=cache, max_pending=1))
        # The socket listens already, so the client need not wait for the
        # thread; a short poll interval keeps shutdown in teardown quick.
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            name="perfbench-http")
        thread.start()
        return {"requests": requests, "server": server, "thread": thread,
                "cache": cache, "cache_dir": cache_dir,
                "rng": random.Random(f"{self.name}/{seed}")}

    def teardown(self, ctx: dict) -> None:
        ctx["server"].shutdown()
        ctx["server"].server_close()
        ctx["thread"].join(30)
        shutil.rmtree(ctx["cache_dir"], ignore_errors=True)

    def measure(self, ctx: dict, seconds: float, tracer) -> list[dict]:
        host, port = ctx["server"].server_address[:2]
        rng, requests = ctx["rng"], ctx["requests"]
        ops: list[dict] = []
        end = time.perf_counter() + seconds
        for round_ in itertools.count():
            if round_ >= self.min_rounds and time.perf_counter() >= end:
                break
            ctx["cache"].clear()
            for kind in ("cold", "warm"):
                for request in rng.sample(requests, len(requests)):
                    job_id = f"{kind}-{len(ops) + 1}"
                    record, timing = _run_op(tracer, f"op.{kind}", lambda: _http_job(
                        host, port, request, job_id))
                    record.update(timing, kind=kind, round=round_, request=request,
                                  key=json.dumps(request, sort_keys=True))
                    record["transport"] = max(
                        0.0, record["wall"] - record["queued"] - record["run"])
                    if kind == "warm":
                        record["cells"] = None  # checked by digest
                    ops.append(record)
        return ops

    def verify(self, ctx: dict, ops: list[dict]) -> None:
        ids = [op["job_id"] for op in ops]
        if len(set(ids)) != len(ids):
            ops[0]["error"] = "duplicate job ids"
        cold_digest = {}  # warm cells must equal the same round's cold cells
        proven: dict[str, list] = {}  # a repeated cold job must repeat its counters
        for op in ops:
            if op.get("error"):
                continue
            if op["responses"] != 1 or op["status"] != "ok":
                op["error"] = f"{op['responses']} responses, status {op['status']!r}"
            elif op["kind"] == "cold":
                cold_digest[op["round"], op["key"]] = op["digest"]
                if op["cells_cached"] or not op["cells_done"]:
                    op["error"] = f"cold job hit {op['cells_cached']}/{op['cells_done']} cells"
                elif op["key"] in proven:
                    if proven[op["key"]] != self.counters(op):
                        op["error"] = "a repeated cold job gave other counters"
                else:
                    op["error"] = self._check_cell(op)
                    proven[op["key"]] = self.counters(op)
            elif op["cells_cached"] != op["cells_done"] or not op["cells_done"]:
                op["error"] = f"warm job hit {op['cells_cached']}/{op['cells_done']} cells"
            elif op["digest"] != cold_digest.get((op["round"], op["key"])):
                op["error"] = "warm cells differ from the cold cells"

    def _check_cell(self, op: dict) -> str | None:
        request = op["request"]
        [cell] = op["cells"]
        scheme, params = request["schemes"][0]
        original = resolve_circuit(request["circuits"][0], request["scale"])
        seed, effort = request["seeds"][0], request["efforts"][0]
        locked = registry.lock_circuit(scheme, original, **params, seed=seed)
        if scheme == "sarlock" and effort == 0 and cell["max_dips"] != (1 << self.key_size) - 1:
            return f"SARLock cell ran {cell['max_dips']} DIPs"
        if set(cell["metrics"] or {}) != set(self.metric_names):
            return "cell is missing metrics"
        splitting = select_splitting_inputs(locked, effort, seed=seed)
        if not verify_composition(locked, splitting, cell["key_ints"], original):
            return "composed keys are not equivalent to the original"
        return None

    def counters(self, op: dict) -> list:
        # Cells carry their cold run's timing columns, which differ
        # between repeats; warm cells are checked whole, by digest.
        cells = op.get("cells") or [{}]
        request = op["request"]
        return [f"{op['kind']}/{request['schemes'][0][0]}/{request['circuits'][0]}"
                f"/N{request['efforts'][0]}/{request['seeds'][0]}",
                op["cells_done"], op["cells_cached"],
                [c.get("dips_per_task") for c in cells],
                [c.get("oracle_queries") for c in cells],
                [c.get("metrics") for c in cells]]

    def metrics(self, ops: list[dict]) -> dict:
        cold_ops = [op for op in ops if op["kind"] == "cold"]
        cold = per_unit((op["key"], op["s"]) for op in cold_ops)
        warm = list(per_unit((op["key"], op["s"]) for op in ops if op["kind"] == "warm").values())
        effort = {op["key"]: op["request"]["efforts"][0] for op in cold_ops}
        max_shard = per_unit((op["key"], op["cells"][0]["max_seconds"])
                            for op in cold_ops if effort[op["key"]])
        single = statistics.median(s for key, s in cold.items() if not effort[key])
        return {
            "attack_s_p50": single,
            "baseline_s_p50": single,
            "unlock_s_p50": statistics.median(s for key, s in cold.items() if effort[key]),
            "max_shard_s_p50": statistics.median(max_shard.values()),
            "cold_job_s_p50": statistics.median(cold.values()),
            "cold_cells_per_s": len(cold) / sum(cold.values()),
            "warm_job_s_p50": percentile(warm, 50),
            "warm_job_s_p90": percentile(warm, 90),
        }

    @staticmethod
    def service_totals(ops: list[dict]) -> dict:
        return {
            "queued": sum(op["queued"] for op in ops),
            "run": sum(op["run"] for op in ops),
            "events": sum(op["events"] for op in ops),
            "transport": sum(op["transport"] for op in ops),
        }


def _http_job(host: str, port: int, request: dict, job_id: str) -> dict:
    """POST one job and read its stream.

    A 503 (admission control) is retried after its ``Retry-After`` hint;
    the caller times the whole call, so the job's wall time runs from
    the first attempt and counts the wait.
    """
    body = json.dumps({**request, "id": job_id})
    record = {"job_id": job_id, "attempts": 0, "responses": 0, "status": "",
              "events": 0, "queued": 0.0, "run": 0.0, "cells": None,
              "cells_done": 0, "cells_cached": 0}
    while True:
        record["attempts"] += 1
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            conn.request("POST", "/v1/jobs", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            if response.status == 503 and record["attempts"] < 100:
                retry = float(response.getheader("Retry-After", "0.1"))
                response.read()
                time.sleep(min(retry, 0.5))
                continue
            if response.status != 200:
                record["error"] = f"HTTP {response.status}"
                break
            for raw in response:
                if not raw.strip():
                    continue
                line = json.loads(raw)
                if line.get("kind") == "event":
                    record["events"] += 1
                    data = line.get("data", {})
                    if line["type"] == "job_done":
                        record["queued"] = data["queued_seconds"]
                        record["run"] = data["run_seconds"]
                    elif line["type"] == "cell_done" and "done" in data:
                        record["cells_done"] += 1
                        record["cells_cached"] += bool(data.get("cached"))
                elif line.get("kind") == "response":
                    record["responses"] += 1
                    record["status"] = line.get("status")
                    record["cells"] = (line.get("result") or {}).get("cells")
                    # A digest, so thousands of warm replies stay small.
                    record["digest"] = hashlib.sha256(
                        json.dumps(record["cells"], sort_keys=True).encode()).hexdigest()
            break
        except OSError as error:
            record["error"] = f"{type(error).__name__}: {error}"
            break
        finally:
            conn.close()
    return record
