"""``corruption_cell``: the registered task kind behind every metric.

One cell = one (scheme, circuit, effort, seed) point evaluated by
:func:`repro.metrics.engine.evaluate_corruption`.  The cache-identity
contract follows ``scenario_cell``:

* **Hashed** (``params``): scheme + params, circuit, scale, the sorted
  metric roster, ``key_samples``, the cell seed (feeds the scheme like
  a matrix cell), the resolved ``metrics_seed`` (feeds the sample
  streams), ``effort``, ``input_samples`` and the resolved ``opt``
  level — everything that determines the report's bits.

The metric list is sorted before hashing: requesting ``corruption,
subspace`` and ``subspace,corruption`` is the same computation and
must hit the same cache entry.
"""

from __future__ import annotations

from repro.runner import TaskSpec, register_task

__all__ = ["corruption_cell_task"]


@register_task("corruption_cell")
def _corruption_cell_worker(params: dict) -> dict:
    """Worker: lock the carrier circuit, run the metric sweep."""
    from repro.bench_circuits.corpus import resolve_circuit
    from repro.locking.registry import lock_circuit
    from repro.metrics.engine import evaluate_corruption

    original = resolve_circuit(params["circuit"], params["scale"])
    scheme_params = dict(params.get("scheme_params") or {})
    scheme_params.setdefault("seed", params["seed"])
    locked = lock_circuit(params["scheme"], original, **scheme_params)
    report = evaluate_corruption(
        locked,
        original,
        metrics=params["metrics"],
        key_samples=params["key_samples"],
        seed=params["metrics_seed"],
        effort=params["effort"],
        opt=params["opt"],
        input_samples=params.get("input_samples", 256),
    )
    return report.to_payload()


def corruption_cell_task(
    scheme: str,
    scheme_params: dict,
    circuit: str,
    scale: float,
    effort: int,
    seed: int,
    metrics: tuple[str, ...] | list[str] = ("corruption",),
    key_samples: int = 64,
    metrics_seed: int | None = None,
    opt: str | None = None,
    input_samples: int = 256,
) -> TaskSpec:
    """The :class:`TaskSpec` for one corruption cell.

    ``metrics_seed=None`` resolves to the cell ``seed`` so a plain
    matrix sweep varies the sample streams with the seed axis; pinning
    it decouples metric sampling from scheme seeding.
    """
    from repro.circuit.opt import resolve_opt
    from repro.metrics.registry import metric_info

    roster = sorted(set(metrics))
    for name in roster:
        metric_info(name)
    return TaskSpec(
        kind="corruption_cell",
        params={
            "scheme": scheme,
            "scheme_params": dict(scheme_params or {}),
            "circuit": circuit,
            "scale": scale,
            "effort": effort,
            "seed": seed,
            "metrics": roster,
            "key_samples": int(key_samples),
            "metrics_seed": seed if metrics_seed is None else int(metrics_seed),
            "opt": resolve_opt(opt),
            "input_samples": int(input_samples),
        },
        label=f"metrics {scheme} {circuit} N={effort}",
    )
