"""Envelope schema tests: round trips, tolerance, fail-fast validation."""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import pytest

from repro.circuit.opt import OPT_LEVEL
from repro.runner import task_worker
from repro.scenarios import ScenarioSpec
from repro.scenarios import matrix as matrix_module
from repro.scenarios.matrix import MatrixResult
from repro.service import (
    SCHEMA_VERSION,
    AttackRequest,
    BenchRequest,
    EnvelopeError,
    Event,
    ExperimentRequest,
    MatrixRequest,
    MetricsRequest,
    Response,
    Service,
    from_dict,
    from_json,
    to_dict,
    to_json,
)

#: One representative instance per envelope type, defaults and
#: non-defaults mixed, used by the generic round-trip tests.
ENVELOPES = [
    MatrixRequest(),
    MatrixRequest(
        schemes=[["sarlock", {"key_size": 4}], "xor"],
        attacks=["sat", ("appsat", {"error_threshold": 0.0})],
        engines=["sharded", "reference"],
        circuits=["c432", "c880"],
        scale=0.2,
        efforts=[1, 2],
        seeds=[0, 7],
        time_limit_per_task=30.0,
        max_dips_per_task=100,
        include_baseline=True,
        verify_composition=True,
        measure_resistance=True,
    ),
    AttackRequest(),
    AttackRequest(
        circuit="c1908",
        scheme="antisat",
        scheme_params={"key_size": 4},
        attack="appsat",
        attack_params={"error_threshold": 0.0},
        engine="reference",
        effort=1,
        scale=0.15,
        seed=3,
        time_limit_per_task=10.0,
        parallel=True,
    ),
    ExperimentRequest(),
    ExperimentRequest(experiment="table1", params={"key_sizes": [3], "scale": 0.12}),
    ExperimentRequest(experiment="defense", params={"key_size": 4}),
    BenchRequest(),
    BenchRequest(circuit="c432", scale=0.3),
    Response(request_kind="matrix", status="ok", job_id="j1", result={"cells": []}),
    Response(request_kind="attack", status="error", error="boom"),
    Response(request_kind="experiment", status="cancelled"),
]


def _envelope_name(envelope) -> str:
    """A test id: the matrix envelope goes by its service name."""
    if envelope.kind == "matrix":
        return "MatrixRequest"
    return type(envelope).__name__


class TestRoundTrips:
    @pytest.mark.parametrize(
        "envelope", ENVELOPES, ids=_envelope_name
    )
    def test_json_round_trip_is_identity(self, envelope):
        assert from_json(to_json(envelope)) == envelope

    @pytest.mark.parametrize(
        "envelope", ENVELOPES, ids=_envelope_name
    )
    def test_wire_shape_is_versioned_and_json_pure(self, envelope):
        payload = json.loads(to_json(envelope))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == type(envelope).kind

    def test_event_round_trip(self):
        event = Event(
            type="cell_done",
            job_id="j9",
            seq=4,
            data={"label": "x", "done": 2, "total": 4},
        )
        decoded = from_json(event.to_json())
        assert decoded == event

    def test_unknown_event_type_decodes_and_renders_nothing(self):
        from repro.service import render_event

        line = json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "event",
                "type": "heartbeat",
                "job_id": "j1",
                "seq": 3,
                "data": {"elapsed_seconds": 60.0},
            }
        )
        event = from_json(line)
        assert (event.type, event.job_id, event.seq) == ("heartbeat", "j1", 3)
        assert event.data == {"elapsed_seconds": 60.0}
        assert render_event(event) is None

    def test_axis_shapes_normalize_to_one_form(self):
        # str / (name, params) / {"name": ...} all decode equal.
        a = MatrixRequest(schemes=["sarlock"])
        b = MatrixRequest(schemes=[("sarlock", {})])
        c = MatrixRequest(schemes=[{"name": "sarlock"}])
        assert a == b == c


# ----------------------------------------------------------------------
# Shared field values against a test-local ``asdict`` reference
# ----------------------------------------------------------------------


def _asdict_wire(envelope) -> dict:
    """Reference ``to_dict``: the envelope's fields deep-copied."""
    return {
        "schema_version": SCHEMA_VERSION, "kind": envelope.kind,
        **asdict(envelope),
    }


def _asdict_describe(spec: ScenarioSpec) -> dict:
    """Reference ``ScenarioSpec.describe``."""
    return {**asdict(spec), "opt": OPT_LEVEL, "size": spec.size}


def _asdict_payload(result: MatrixResult) -> dict:
    """Reference ``MatrixResult.to_payload``."""
    return {
        "spec": _asdict_describe(result.spec),
        "cells": [asdict(cell) for cell in result.cells],
    }


def _same_json(new, reference) -> None:
    """Equal, and the same bytes both with and without sorted keys."""
    assert new == reference
    assert json.dumps(new) == json.dumps(reference)
    assert json.dumps(new, sort_keys=True) == json.dumps(
        reference, sort_keys=True
    )


#: A one-cell grid with every optional cell block filled in.
_FULL_CELL_GRID = dict(
    schemes=[["sarlock", {"key_size": 3}]],
    circuits=["c432"],
    scale=0.12,
    efforts=[1],
    include_baseline=True,
    verify_composition=True,
    measure_resistance=True,
    metrics=["corruption", "subspace", "bit_flip", "avalanche"],
    key_samples=4,
)


@pytest.fixture(scope="module")
def real_responses() -> dict:
    """A real matrix, attack and ``figure2`` response, run once."""
    service = Service()
    return {
        "matrix": service.run(MatrixRequest(**_FULL_CELL_GRID)),
        "attack": service.run(
            AttackRequest(
                circuit="c432", scheme_params={"key_size": 3}, effort=1,
                scale=0.12,
            )
        ),
        "figure2": service.run(
            ExperimentRequest(
                experiment="figure2",
                params={"key_size": 3, "scale": 0.12, "efforts": [0, 1],
                        "key_samples": 4},
            )
        ),
    }


class TestSharedFieldsMatchAsdict:
    """``to_dict``, ``describe``, ``to_payload`` and the ``scenario_cell``
    worker share field values where ``asdict`` deep-copied them.  Every
    field holds plain JSON data, so the JSON they build must not move:
    a nested dataclass in a field would fail here."""

    @pytest.mark.parametrize("envelope", ENVELOPES, ids=_envelope_name)
    def test_envelope_wire_shape(self, envelope):
        _same_json(to_dict(envelope), _asdict_wire(envelope))
        assert to_json(envelope) == json.dumps(
            _asdict_wire(envelope), sort_keys=True
        )
        if isinstance(envelope, ScenarioSpec):
            _same_json(envelope.describe(), _asdict_describe(envelope))

    @pytest.mark.parametrize("kind", ["matrix", "attack", "figure2"])
    def test_real_response(self, real_responses, kind):
        response = real_responses[kind]
        assert response.status == "ok"
        _same_json(to_dict(response), _asdict_wire(response))
        if kind != "figure2":
            result = MatrixResult.from_payload(response.result)
            _same_json(result.to_payload(), _asdict_payload(result))
            _same_json(result.spec.describe(), _asdict_describe(result.spec))

    def test_matrix_cell_carries_every_block(self, real_responses):
        [cell] = real_responses["matrix"].result["cells"]
        assert None not in (
            cell["metrics"], cell["metrics_detail"], cell["ratio"],
            cell["composition_equivalent"], cell["subspace_keys"],
        )

    def test_scenario_cell_artifact(self, monkeypatch):
        evaluated = []

        def recording(params, runner=None):
            evaluated.append(evaluate(params, runner))
            return evaluated[-1]

        evaluate = matrix_module.evaluate_cell
        monkeypatch.setattr(matrix_module, "evaluate_cell", recording)
        [task] = MatrixRequest(**_FULL_CELL_GRID).expand()
        artifact = task_worker("scenario_cell")(task.worker_params)
        _same_json(artifact, asdict(evaluated[0]))


#: One small grid, as a spec and as a matrix request.
_SMALL_GRID = dict(
    schemes=["xor"], circuits=["c17"], metrics=["corruption"], key_samples=2
)

#: Requests of the kinds that carried an ``opt`` field.
_OPT_ERA_REQUESTS = {
    "attack": AttackRequest(circuit="c17", scheme="xor", effort=1),
    "matrix": MatrixRequest(**_SMALL_GRID),
    "metrics": MetricsRequest(circuit="c17", scheme="xor"),
}


def _cache_keys(spec: ScenarioSpec) -> list[str]:
    return [task.cache_key for task in spec.expand() + spec.expand_metrics()]


#: A grid with every field off its default (``solver`` names the one
#: registered backend, which is also what the default resolves to).
_EVERY_FIELD_SET = dict(
    schemes=[["sarlock", {"key_size": 3}], ["xor", {"key_size": 2}]],
    attacks=["sat", ["appsat", {"error_threshold": 0.0}]],
    engines=["reference"],
    selections=["random", "first"],
    synthesis=[False],
    circuits=["c17", "real_c432"],
    scale=0.2,
    efforts=[0, 2],
    seeds=[3, 4],
    solver="python",
    time_limit_per_task=30.0,
    max_dips_per_task=50,
    include_baseline=True,
    verify_composition=True,
    measure_resistance=True,
    metrics=["corruption", "subspace"],
    key_samples=8,
    metrics_seed=5,
)


class TestMatrixMirrorsSpec:
    """The ``matrix`` envelope is the ``ScenarioSpec`` itself, so no
    axis can be dropped on its way from the wire to the grid."""

    def test_matrix_request_names_the_spec(self):
        assert MatrixRequest is ScenarioSpec
        assert ScenarioSpec.kind == "matrix"

    def test_every_field_survives_the_wire(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER", raising=False)
        assert set(_EVERY_FIELD_SET) == {f.name for f in fields(ScenarioSpec)}
        spec = ScenarioSpec(**_EVERY_FIELD_SET)
        default = ScenarioSpec()
        assert [
            f.name for f in fields(ScenarioSpec)
            if getattr(spec, f.name) == getattr(default, f.name)
        ] == ["solver"]
        decoded = from_json(to_json(spec))
        assert decoded == spec
        assert _cache_keys(decoded) == _cache_keys(spec)
        assert decoded.describe() == spec.describe()

    def test_selection_and_synthesis_axes_survive_from_dict(self):
        payload = {
            "schema_version": SCHEMA_VERSION, "kind": "matrix",
            "schemes": [["sarlock", {"key_size": 3}]],
            "engines": ["reference"], "circuits": ["c17"],
            "selections": ["random", "first"], "synthesis": [False],
        }
        spec = from_dict(payload)
        assert spec.selections == ["random", "first"]
        assert spec.synthesis == [False]
        assert from_dict(to_dict(spec)) == spec
        assert {
            (task.params["selection"], task.params["run_synthesis"])
            for task in spec.expand()
        } == {("random", False), ("first", False)}


class TestTolerance:
    def test_unknown_fields_are_ignored(self):
        payload = json.loads(to_json(BenchRequest(circuit="c432")))
        payload["added_in_a_future_version"] = {"nested": True}
        assert from_dict(payload) == BenchRequest(circuit="c432")

    @pytest.mark.parametrize("opt", ["full", "off"])
    @pytest.mark.parametrize("kind", ["attack", "matrix", "metrics", "describe"])
    def test_retired_opt_field_is_ignored(self, kind, opt):
        """Payloads and ``describe()`` exports written while ``opt`` was
        a lever still decode, to exactly what they decode to without
        it, so their cells hash to the same cache keys."""
        if kind == "describe":
            spec = ScenarioSpec(**_SMALL_GRID)
            assert spec.describe()["opt"] == "full"  # the column stays
            decoded = ScenarioSpec.from_payload({**spec.describe(), "opt": opt})
        else:
            request = _OPT_ERA_REQUESTS[kind]
            assert "opt" not in to_dict(request)
            old = from_dict({**to_dict(request), "opt": opt})
            assert old == request
            if kind != "matrix":
                return  # equal envelopes run the same job
            spec, decoded = request, old
        assert _cache_keys(decoded) == _cache_keys(spec)

    def test_unknown_event_data_keys_survive(self):
        payload = json.loads(
            Event(type="progress", job_id="j", seq=0, data={"done": 1}).to_json()
        )
        payload["extra"] = "ignored"
        assert from_dict(payload).data == {"done": 1}


class TestVersioning:
    def test_wrong_schema_version_is_rejected(self):
        payload = json.loads(to_json(BenchRequest()))
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(EnvelopeError, match="schema_version"):
            from_dict(payload)

    def test_missing_schema_version_is_rejected(self):
        payload = json.loads(to_json(BenchRequest()))
        del payload["schema_version"]
        with pytest.raises(EnvelopeError, match="schema_version"):
            from_dict(payload)

    def test_unknown_kind_lists_the_roster(self):
        with pytest.raises(EnvelopeError, match="matrix"):
            from_dict({"schema_version": SCHEMA_VERSION, "kind": "nope"})

    def test_non_object_payloads_are_rejected(self):
        with pytest.raises(EnvelopeError, match="JSON object"):
            from_dict([1, 2, 3])
        with pytest.raises(EnvelopeError, match="not valid JSON"):
            from_json("{nope")


class TestFailFastValidation:
    def test_matrix_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown locking scheme"):
            MatrixRequest(schemes=["nope"])

    def test_matrix_unknown_attack(self):
        with pytest.raises(ValueError, match="unknown attack"):
            MatrixRequest(attacks=["nope"])

    def test_matrix_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            MatrixRequest(engines=["warp"])

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"efforts": [-1]}, "effort must be non-negative"),
            ({"scale": 0}, "scale must be positive"),
        ],
    )
    def test_matrix_out_of_range_numbers(self, bad, match):
        with pytest.raises(ValueError, match=match):
            MatrixRequest(**bad)

    def test_bad_matrix_post_starts_no_job(self, service, http_daemon):
        from tests.service.conftest import matrix_request
        from tests.service.test_http import http_request

        before = service.job_count()
        for field_name, value in (("efforts", [-1]), ("scale", 0)):
            bad = {**matrix_request("bad"), field_name: value}
            status, _, text = http_request(
                http_daemon.server_address, "POST", "/v1/jobs", body=bad
            )
            assert status == 400
            assert json.loads(text)["status"] == "error"
        assert service.job_count() == before

    def test_attack_unknown_circuit(self):
        with pytest.raises(EnvelopeError, match="unknown circuit 'nope'"):
            AttackRequest(circuit="nope")

    def test_attack_out_of_range_numbers(self):
        with pytest.raises(EnvelopeError, match="effort must be non-negative"):
            AttackRequest(effort=-1)
        with pytest.raises(EnvelopeError, match="scale must be positive"):
            AttackRequest(scale=0)

    def test_attack_unknown_names(self):
        with pytest.raises(ValueError, match="unknown locking scheme"):
            AttackRequest(scheme="nope")
        with pytest.raises(ValueError, match="unknown attack"):
            AttackRequest(attack="nope")
        with pytest.raises(EnvelopeError, match="unknown engine"):
            AttackRequest(engine="warp")

    def test_experiment_roster(self):
        with pytest.raises(EnvelopeError, match="unknown experiment"):
            ExperimentRequest(experiment="table9")

    def test_experiment_param_names_checked_against_driver(self):
        with pytest.raises(EnvelopeError, match="key_sizes"):
            ExperimentRequest(experiment="defense", params={"key_sizes": [4]})
        # ... and the real knob is accepted.
        ExperimentRequest(experiment="defense", params={"key_size": 4})

    def test_bench_validation(self):
        with pytest.raises(EnvelopeError, match="circuit"):
            BenchRequest(circuit="")
        with pytest.raises(EnvelopeError, match="unknown circuit 'nope'"):
            BenchRequest(circuit="nope")
        with pytest.raises(EnvelopeError, match="scale"):
            BenchRequest(scale=0)

    def test_response_status_roster(self):
        with pytest.raises(EnvelopeError, match="status"):
            Response(status="exploded")

    def test_unknown_event_type(self):
        from repro.service import EventError

        with pytest.raises(EventError, match="unknown event type"):
            Event(type="cell_exploded", job_id="j", seq=0)

    def test_validation_happens_on_decode_too(self):
        payload = json.loads(to_json(MatrixRequest()))
        payload["schemes"] = [["nope", {}]]
        with pytest.raises(ValueError, match="unknown locking scheme"):
            from_dict(payload)
