"""Figure 1: the paper's worked example.

(a) The error distribution of a 3-input circuit locked with SARLock
    (``|I| = |K| = 3``, ``k* = 101``): every wrong key errs on exactly
    the input pattern equal to itself.

(b) The multi-key unlock: one key per half of the input space (split
    on the MSB), composed through a MUX on the same condition, is
    functionally equivalent to the original — proven here by CEC.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.attacks.brute_force import brute_force_keys
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.core.compose import compose_multikey_netlist, verify_composition
from repro.core.multikey import multikey_attack
from repro.locking.sarlock import sarlock_lock
from repro.metrics.engine import error_matrix
from repro.oracle.oracle import Oracle
from repro.runner import Runner, TaskSpec, register_task


def paper_example_circuit() -> Netlist:
    """A 3-input, 1-output circuit standing in for Fig. 1's example.

    The paper does not specify the carrier function — SARLock's error
    distribution is independent of it — so we use a small non-trivial
    one: ``y = (i0 XOR i1) XOR i2``.
    """
    netlist = Netlist("fig1_example")
    netlist.add_inputs(["i0", "i1", "i2"])  # i2 is the MSB
    netlist.add_gate("t0", GateType.XOR, ["i0", "i1"])
    netlist.add_gate("y", GateType.XOR, ["t0", "i2"])
    netlist.set_outputs(["y"])
    return netlist


def format_error_matrix(matrix: list[list[bool]], key_width: int) -> str:
    """Render an error matrix the way Fig. 1(a) does (rows = inputs).

    Patterns and keys are displayed MSB-first, like the paper (bit
    ``j`` of a pattern drives port ``j``).
    """
    input_width = max(1, (len(matrix) - 1).bit_length())
    keys = [format(k, f"0{key_width}b") for k in range(len(matrix[0]))]
    lines = ["input \\ key  " + " ".join(f"{k:>{key_width}}" for k in keys)]
    for i, row in enumerate(matrix):
        cells = " ".join(f"{'x' if err else '.':>{key_width}}" for err in row)
        lines.append(f"{format(i, f'0{input_width}b'):>11}  {cells}")
    return "\n".join(lines)


@dataclass
class Figure1Result:
    matrix: list[list[bool]]
    matrix_text: str
    correct_key: int
    keys_msb0: list[int]
    keys_msb1: list[int]
    chosen_keys: list[int]
    composition_equivalent: bool
    composed_gates: int
    incorrect_pair: tuple[int, int] | None = None
    incorrect_pair_equivalent: bool | None = None

    @classmethod
    def from_payload(cls, payload: dict) -> "Figure1Result":
        """Rebuild from ``asdict`` output (JSON turns the pair into a list)."""
        data = dict(payload)
        if data.get("incorrect_pair") is not None:
            data["incorrect_pair"] = tuple(data["incorrect_pair"])
        return cls(**data)

    def format(self) -> str:
        lines = [
            "Figure 1(a): error distribution (rows = inputs, cols = keys; "
            "x = erroneous output)",
            self.matrix_text,
            "",
            f"correct key k* = {self.correct_key:03b} "
            f"(displayed MSB-first, as in the paper)",
            f"keys unlocking the MSB=0 half: "
            f"{[format(k, '03b') for k in self.keys_msb0]}",
            f"keys unlocking the MSB=1 half: "
            f"{[format(k, '03b') for k in self.keys_msb1]}",
            "",
            "Figure 1(b): MUX composition of "
            f"{[format(k, '03b') for k in self.chosen_keys]} on the MSB: "
            f"equivalent = {self.composition_equivalent} "
            f"({self.composed_gates} gates)",
        ]
        if self.incorrect_pair is not None:
            a, b = self.incorrect_pair
            lines.append(
                "Figure 1(b) with two *incorrect* keys "
                f"({a:03b} for MSB=0, {b:03b} for MSB=1): "
                f"equivalent = {self.incorrect_pair_equivalent}"
            )
        return "\n".join(lines)


@register_task("figure1")
def _figure1_task(params: dict) -> dict:
    """Worker: both panels of Fig. 1 as one artifact."""
    return asdict(_compute_figure1(params["correct_key"]))


def figure1_task(correct_key: int) -> TaskSpec:
    """The :class:`TaskSpec` for a Figure 1 regeneration."""
    return TaskSpec(
        kind="figure1",
        params={"correct_key": correct_key},
        label=f"figure1 k*={correct_key:03b}",
    )


def run_figure1(
    correct_key: int = 0b101, runner: Runner | None = None
) -> Figure1Result:
    """Regenerate both panels of Fig. 1.

    The default ``correct_key`` is the paper's ``101``.  Keys are
    displayed MSB-first (bit 2 = ``i2``'s comparator bit) to match the
    figure.
    """
    runner = runner or Runner()
    [task] = runner.run([figure1_task(correct_key)])
    return Figure1Result.from_payload(task.artifact)


def _compute_figure1(correct_key: int) -> Figure1Result:
    original = paper_example_circuit()
    locked = sarlock_lock(
        original,
        key_size=3,
        correct_key=correct_key,
        protected_inputs=["i0", "i1", "i2"],
    )

    matrix = error_matrix(locked, original)
    keys_msb0 = brute_force_keys(locked, Oracle(original), pin={"i2": False})
    keys_msb1 = brute_force_keys(locked, Oracle(original), pin={"i2": True})

    # Recover one key per half with the pinned SAT attack, like the
    # paper's attacker would (Algorithm 1 with N = 1 on the MSB).
    attack = multikey_attack(
        locked, original, effort=1, splitting_inputs=["i2"]
    )
    chosen = [k for k in attack.key_ints if k is not None]
    equivalence = verify_composition(
        locked, attack.splitting_inputs, attack.keys, original
    )
    composed = compose_multikey_netlist(
        locked, attack.splitting_inputs, attack.keys
    )

    # The paper's point sharpened: compose two keys that are both
    # *incorrect* globally and prove the result is still equivalent.
    incorrect_pair: tuple[int, int] | None = None
    incorrect_equivalent: bool | None = None
    wrong0 = [k for k in keys_msb0 if k != correct_key]
    wrong1 = [k for k in keys_msb1 if k != correct_key]
    if wrong0 and wrong1:
        incorrect_pair = (wrong0[0], wrong1[0])
        incorrect_equivalent = bool(
            verify_composition(
                locked, ["i2"], [incorrect_pair[0], incorrect_pair[1]], original
            )
        )

    return Figure1Result(
        matrix=matrix,
        matrix_text=format_error_matrix(matrix, key_width=3),
        correct_key=correct_key,
        keys_msb0=keys_msb0,
        keys_msb1=keys_msb1,
        chosen_keys=chosen,
        composition_equivalent=bool(equivalence),
        composed_gates=composed.num_gates,
        incorrect_pair=incorrect_pair,
        incorrect_pair_equivalent=incorrect_equivalent,
    )
