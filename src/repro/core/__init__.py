"""The paper's contribution: the multi-key input-space-splitting attack.

Algorithm 1 of the paper:

1. choose ``N`` splitting inputs (fan-out-cone heuristic),
2. for each of the ``2^N`` constant assignments, synthesize a
   conditional netlist and run the (pinned) SAT attack against the
   oracle — each sub-task returns a key valid on its sub-space,
3. the ``2^N`` keys collectively unlock the design: a MUX network
   selecting among them on the splitting condition reconstructs the
   original function exactly (Fig. 1b), which we prove by CEC.

Sub-tasks are independent, so :func:`multikey_attack` can fan them out
over a process pool — the paper's 16-core scenario.  It is the one
front end; :func:`engine_for` picks which of two engines implements
step 2: the literal ``"reference"`` arm (per-sub-space synthesis +
cold SAT attack) or the ``"sharded"`` arm
(:func:`repro.core.sharded.run_shards`: one shared miter encoding,
warm assumption-pinned shards; :func:`sharded_multikey_attack` is its
shorthand).
"""

from repro.core.compose import compose_multikey_netlist, verify_composition
from repro.core.conditional import ConditionalNetlist, generate_conditional_netlist
from repro.core.multikey import MultiKeyResult, SubTaskResult, multikey_attack
from repro.core.sharded import ShardEngine, sharded_multikey_attack
from repro.core.splitting import select_splitting_inputs, splitting_assignments

__all__ = [
    "select_splitting_inputs",
    "splitting_assignments",
    "generate_conditional_netlist",
    "ConditionalNetlist",
    "multikey_attack",
    "sharded_multikey_attack",
    "ShardEngine",
    "MultiKeyResult",
    "SubTaskResult",
    "compose_multikey_netlist",
    "verify_composition",
]
