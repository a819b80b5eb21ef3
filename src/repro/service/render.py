"""Renderers: typed events/responses -> the classic CLI text.

The service layer is machine-first (envelopes and events); everything
human-readable is produced here, and only here.  Two entry points:

* :func:`render_event` — the one-line progress rendering of a streamed
  event (``None`` for events that print nothing).  Built on
  :func:`repro.runner.progress_line`, the same formatter behind the
  classic :func:`repro.runner.print_progress` callback, so local runs
  and daemon-streamed runs produce identical progress lines.
* :func:`render_response` — the full result text of a finished job,
  byte-identical to what the pre-service CLI printed (the golden tests
  in ``tests/service/test_golden_cli.py`` pin this).
"""

from __future__ import annotations

from typing import get_type_hints

from repro.runner import progress_line
from repro.service.envelopes import Response, experiment_entry
from repro.service.events import Event


def render_event(event: Event) -> str | None:
    """One line of progress text for ``event`` (``None``: print nothing).

    ``cell_done`` renders as the classic per-task progress line;
    ``warning`` as a prefixed message; everything else is silent (the
    aggregate ``progress`` event exists for machine consumers).
    """
    if event.type == "cell_done":
        data = event.data
        return progress_line(
            str(data.get("label", "")),
            bool(data.get("cached", False)),
            float(data.get("elapsed_seconds", 0.0)),
            int(data.get("done", 0)),
            int(data.get("total", 0)),
        )
    if event.type == "warning":
        return f"warning: {event.data.get('message', '')}"
    return None


def render_response(response: Response, verbose: bool = True) -> str:
    """The human text of a successful (or partial) response.

    Reconstructs the library's result object from the payload and
    renders it with the library's own formatter, so service-mediated
    output cannot drift from a direct driver call.  Raises
    ``ValueError`` for error responses — the caller decides how to
    surface those.
    """
    if response.status == "error":
        raise ValueError(
            f"cannot render an error response: {response.error}"
        )
    payload = response.result or {}
    if response.status == "cancelled" and set(payload) <= {"completed"}:
        # A job cancelled before its executor could assemble the full
        # kind-specific payload (e.g. a fixed-shape experiment driver
        # stopped mid-run): only the completed-unit list survives.
        completed = payload.get("completed", [])
        return f"job cancelled ({len(completed)} unit(s) completed)"
    if response.request_kind == "matrix":
        from repro.scenarios.matrix import MatrixResult

        return MatrixResult.from_payload(payload).format()
    if response.request_kind == "metrics":
        from repro.metrics import CorruptionReport

        return CorruptionReport.from_payload(payload["report"]).format()
    if response.request_kind == "experiment":
        driver, render = experiment_entry(payload["experiment"])
        # The driver's declared result type (a grid's MatrixResult,
        # Figure 2's spec-and-reports, Figure 1's own class) rebuilds
        # its payload.
        result_type = get_type_hints(driver)["return"]
        return render(result_type.from_payload(payload["result"]))
    if response.request_kind == "attack":
        return _render_attack(payload, verbose=verbose)
    if response.request_kind == "bench":
        return str(payload.get("text", ""))
    raise ValueError(
        f"no renderer for request kind {response.request_kind!r}"
    )


def _render_attack(payload: dict, verbose: bool = True) -> str:
    from repro.scenarios.matrix import MatrixResult

    (cell,) = MatrixResult.from_payload(payload).cells
    lines = [
        f"locked: LockedCircuit({cell.scheme}, |K|={cell.key_size}, "
        f"gates={cell.gates})",
        f"engine={cell.engine_used} attack={cell.attack} status={cell.status} "
        f"splitting={cell.splitting_inputs} dips/task={cell.dips_per_task}",
        f"max task {cell.max_seconds:.2f}s, "
        f"mean {cell.mean_seconds:.2f}s, "
        f"wall {cell.wall_seconds:.2f}s"
        + (
            f" (one-time encode {cell.encode_seconds:.2f}s)"
            if cell.engine_used == "sharded"
            else ""
        ),
    ]
    tasks = cell.subtask_stats or []
    if verbose and any(task["solver_stats"] for task in tasks):
        total = {
            name: sum(task["solver_stats"].get(name, 0) for task in tasks)
            for name in ("conflicts", "decisions", "learned")
        }
        lines.append(
            f"solver totals: {total['conflicts']} conflicts, "
            f"{total['decisions']} decisions, "
            f"{total['learned']} learned clauses"
        )
        for index, (task, dips) in enumerate(zip(tasks, cell.dips_per_task)):
            s = task["solver_stats"]
            lines.append(
                f"  shard {index}: #DIP={dips} "
                f"conflicts={s.get('conflicts', 0)} "
                f"decisions={s.get('decisions', 0)} "
                f"learned={s.get('learned', 0)} "
                f"t={task['seconds']:.2f}s"
            )
    if cell.exact:
        lines.append(
            "multi-key composition equivalent: "
            f"{bool(cell.composition_equivalent)}"
        )
    elif cell.status == "ok":
        # Settled (approximate) keys cannot pass CEC by design.
        lines.append(
            "multi-key composition: skipped (approximate sub-space keys)"
        )
    return "\n".join(lines)
