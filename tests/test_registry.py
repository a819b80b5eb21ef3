"""The one registry primitive, checked through every roster that uses it."""

import dataclasses

import pytest

import repro.attacks.registry
import repro.locking.registry
import repro.metrics.registry
import repro.runner.task
import repro.sat.registry
from repro.registry import Registry, UnknownName

REGISTRIES = {
    "locking scheme": repro.locking.registry._REGISTRY,
    "attack": repro.attacks.registry._REGISTRY,
    "solver backend": repro.sat.registry._REGISTRY,
    "metric": repro.metrics.registry._METRICS,
    "task kind": repro.runner.task._REGISTRY,
}

BY_NOUN = pytest.mark.parametrize(
    "noun, registry", REGISTRIES.items(), ids=list(REGISTRIES)
)


def _imposter(entry):
    """An entry of the same shape wrapping a different callable."""
    if callable(entry):  # task kinds register bare workers
        return lambda params: params
    field = "fn" if hasattr(entry, "fn") else "factory"
    return dataclasses.replace(entry, **{field: lambda *args: None})


@BY_NOUN
def test_each_roster_is_one_registry(noun, registry):
    assert isinstance(registry, Registry)
    assert registry.noun == noun
    assert registry.names()


@BY_NOUN
def test_a_different_object_under_a_taken_name_raises(noun, registry):
    name = registry.names()[0]
    entry = registry[name]
    with pytest.raises(ValueError, match=f"{noun} '{name}' already registered"):
        registry.register(name, _imposter(entry))
    assert registry[name] is entry


@BY_NOUN
def test_reregistering_the_same_object_is_a_no_op(noun, registry):
    name = registry.names()[0]
    entry = registry.get(name)
    assert registry.register(name, entry) is entry
    assert registry.get(name) is entry


@BY_NOUN
def test_unknown_name_is_a_key_and_value_error_naming_the_roster(
    noun, registry
):
    with pytest.raises(UnknownName) as error:
        registry.get("nope")
    assert isinstance(error.value, KeyError)
    assert isinstance(error.value, ValueError)
    roster = ", ".join(registry.names())
    assert str(error.value) == f"unknown {noun} 'nope' (registered: {roster})"


@BY_NOUN
def test_names_are_sorted(noun, registry):
    assert registry.names() == sorted(registry)


def test_get_with_a_default_is_plain_dict_get():
    colours = Registry("colour")
    assert colours.get("red", None) is None
    colours.register("red", 1)
    assert colours.get("red", None) == 1
    assert str(pytest.raises(UnknownName, Registry("x").get, "y").value) == (
        "unknown x 'y' (registered: <none>)"
    )
