"""AppSAT on one live solver: cost accounting and an independent oracle.

The attack builds one miter encoding and resumes its DIP loop round
after round, so each DIP is solved and queried once.  The property
test checks every accepted key against brute-force enumeration, which
shares no code with the SAT path.
"""

import sys

from hypothesis import given, strategies as st

from repro.attacks.appsat import appsat_attack
from repro.attacks.brute_force import brute_force_keys
from repro.circuit.random_circuits import random_netlist
from repro.locking.registry import lock_circuit
from repro.locking.sarlock import sarlock_lock
from repro.oracle.oracle import Oracle


def _count_encodings(monkeypatch) -> list[int]:
    """Count :func:`build_miter_encoding` calls made through the attacks."""
    # The package re-exports the ``sat_attack`` function under the
    # module's name, so reach the module itself through sys.modules.
    module = sys.modules["repro.attacks.sat_attack"]
    build = module.build_miter_encoding
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(module, "build_miter_encoding", counting)
    return calls


class TestOneLiveSolver:
    def test_each_dip_solved_and_queried_once(self, monkeypatch):
        """A multi-round run on SARLock k=8 (255 DIPs to converge) that
        never settles: a negative threshold rejects every checkpoint,
        so only the DIP cap stops it, part-way through a round."""
        original = random_netlist(8, 50, seed=86)
        locked = sarlock_lock(original, 8, seed=1)
        oracle = Oracle(original)
        encodings = _count_encodings(monkeypatch)
        result = appsat_attack(
            locked,
            oracle,
            dips_per_round=2,
            queries_per_checkpoint=16,
            error_threshold=-1.0,
            max_dips=7,
        )
        assert result.status == "dip_limit"
        assert result.key is not None
        assert encodings[0] == 1
        # Rounds of 2, 2, 2 and 1 DIPs: the cap holds exactly.
        assert result.num_dips == 7
        assert len(result.detail["checkpoints"]) == 4
        assert result.detail["random_queries"] == 4 * 16
        assert oracle.query_count == (
            result.num_dips + result.detail["random_queries"]
        )

    def test_settled_run_queries_each_dip_once(self, monkeypatch):
        original = random_netlist(10, 60, seed=82)
        locked = sarlock_lock(original, 10, seed=2)
        oracle = Oracle(original)
        encodings = _count_encodings(monkeypatch)
        result = appsat_attack(
            locked,
            oracle,
            dips_per_round=4,
            queries_per_checkpoint=32,
            error_threshold=0.05,
            seed=3,
        )
        assert result.status == "settled"
        assert len(result.detail["checkpoints"]) >= 2
        assert encodings[0] == 1
        assert oracle.query_count == (
            result.num_dips + result.detail["random_queries"]
        )


@given(
    num_inputs=st.integers(3, 8),
    num_gates=st.integers(15, 45),
    circuit_seed=st.integers(0, 2**16),
    scheme=st.sampled_from(["xor", "sarlock", "antisat"]),
    key_size=st.integers(1, 6),
    pin_value=st.sampled_from([None, False, True]),
    dips_per_round=st.sampled_from([1, 2, 4]),
    settle_rounds=st.integers(1, 3),
    error_threshold=st.sampled_from([0.0, 0.05, 0.25]),
    seed=st.integers(0, 255),
)
def test_accepted_keys_agree_with_brute_force(
    num_inputs,
    num_gates,
    circuit_seed,
    scheme,
    key_size,
    pin_value,
    dips_per_round,
    settle_rounds,
    error_threshold,
    seed,
):
    original = random_netlist(num_inputs, num_gates, seed=circuit_seed)
    if scheme == "antisat":
        key_size += key_size % 2  # the key is ka‖kb
    else:
        key_size = min(key_size, num_inputs)  # SARLock compares inputs
    locked = lock_circuit(scheme, original, key_size=key_size, seed=seed)
    pin = {} if pin_value is None else {original.inputs[0]: pin_value}
    result = appsat_attack(
        locked,
        Oracle(original),
        dips_per_round=dips_per_round,
        queries_per_checkpoint=16,
        error_threshold=error_threshold,
        settle_rounds=settle_rounds,
        seed=seed,
        pin=pin,
    )
    assert result.status in ("ok", "settled")
    if result.status == "ok":
        assert result.key_int in brute_force_keys(
            locked, Oracle(original), pin=pin
        )
        assert result.detail["estimated_error_rate"] == 0.0
    else:
        tail = result.detail["checkpoints"][-settle_rounds:]
        assert len(tail) == settle_rounds
        assert all(rate <= error_threshold for rate in tail)
