"""Decision-order parity: the sorted run against a heap-only reference.

:class:`HeapOrderSolver` keeps the solver's earlier decision order: a
lazy min-heap that every decision pops (re-queueing popped and bumped
variables one by one on each backtrack).  The production solver picks
from a sorted run with per-level cursor marks instead.  Both pick the
minimum ``(-activity, var)`` over unassigned variables, so every call —
``add_clause``, ``solve`` (with assumptions and conflict budgets),
checkpoint/rollback, ``import_learnts``, ``simplify`` — must return the
same value, raise the same way, and leave the same counters and model.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.sat.random_cnf import random_ksat
from repro.sat.solver import BudgetExhausted, Solver, _Clause


class HeapOrderSolver(Solver):
    """The reference: heap-only picker, literal-by-literal backtrack."""

    def new_var(self) -> int:
        v = super().new_var()
        heapq.heappush(self._order, (0.0, v))
        return v

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        litval = self._litval
        queued = self._queued
        act = self._act
        trail = self._trail
        batch: list[tuple[float, int]] = []
        # Reasons are left stale: every assignment writes its own, and
        # _locked() checks the clause's implied literal is still true.
        for lit in trail[bound:]:
            var = lit >> 1
            litval[lit] = 0
            litval[lit ^ 1] = 0
            # Variables that kept their current heap entry while
            # assigned need none; only popped or bumped ones go back.
            if not queued[var]:
                queued[var] = 1
                batch.append((-act[var], var))
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = bound
        order = self._order
        if len(order) > 4 * self._nvars + 1024:
            self._rebuild_order()  # shed accumulated stale entries
        elif len(batch) * 8 > len(order):
            order.extend(batch)
            heapq.heapify(order)
        else:
            push = heapq.heappush
            for entry in batch:
                push(order, entry)

    def _rebuild_order(self) -> None:
        """One current heap entry per unassigned variable, none stale."""
        act = self._act
        litval = self._litval
        queued = self._queued
        order = []
        for v in range(1, self._nvars + 1):
            if litval[2 * v] == 0:
                queued[v] = 1
                order.append((-act[v], v))
            else:
                queued[v] = 0
        heapq.heapify(order)
        self._order = order

    def _propagate(
        self,
        assumptions: list[int] | None = None,
        learnt_cap: float | None = None,
    ) -> _Clause | bool | None:
        """The search loop with the heap-only VSIDS pick."""
        litval = self._litval
        bins = self._bins
        watches = self._watches
        trail = self._trail
        trail_lim = self._trail_lim
        level = self._level
        reason = self._reason
        phase = self._phase
        stats = self.stats
        cur_level = len(trail_lim)
        qhead = start = self._qhead
        confl: _Clause | bool | None = None
        decide = assumptions is not None
        if decide:
            num_assumptions = len(assumptions)
            nvars = self._nvars
            order = self._order
            act = self._act
            queued = self._queued
            pop = heapq.heappop
            num_learnts = len(self._learnts)
        while True:
            if decide:
                if cur_level < num_assumptions:
                    lit = assumptions[cur_level]
                    if litval[lit] == -1:
                        confl = False  # the assumptions are contradicted
                        break
                    if litval[lit] == 1:
                        lit = 0  # already true: its level stays empty
                else:
                    lit = 0
                    # A complete assignment leaves the heap intact rather
                    # than draining it: the next backtrack re-queues less.
                    if len(trail) < nvars:
                        while order:
                            neg_act, var = pop(order)
                            if -neg_act != act[var]:
                                continue  # stale: its current entry is elsewhere
                            queued[var] = 0
                            if litval[var * 2] == 0:
                                lit = var * 2 + (0 if phase[var] else 1)
                                break
                    if not lit:
                        confl = True  # satisfying assignment
                        break
                    stats.decisions += 1
                trail_lim.append(len(trail))
                cur_level += 1
                if lit:
                    if cur_level > stats.max_decision_level:
                        stats.max_decision_level = cur_level
                    var = lit >> 1
                    litval[lit] = 1
                    litval[lit ^ 1] = -1
                    level[var] = cur_level
                    reason[var] = None
                    phase[var] = not (lit & 1)
                    trail.append(lit)
            while qhead < len(trail):
                p = trail[qhead]
                qhead += 1
                false_lit = p ^ 1
                for q in bins[false_lit]:
                    val = litval[q]
                    if val == 1:
                        continue
                    if val == -1:
                        confl = _Clause([q, false_lit])
                        break
                    var = q >> 1
                    litval[q] = 1
                    litval[q ^ 1] = -1
                    level[var] = cur_level
                    reason[var] = false_lit
                    phase[var] = not (q & 1)
                    trail.append(q)
                if confl is not None:
                    break
                ws = watches[false_lit]
                if not ws:
                    continue
                new_ws: list[tuple[int, _Clause]] = []
                keep = new_ws.append
                entries = iter(ws)
                for entry in entries:
                    blocker, c = entry
                    # Blocker short-circuit: if some other literal of the
                    # clause is already true, the clause is satisfied and
                    # its literal array need not be touched at all.
                    if litval[blocker] == 1:
                        keep(entry)
                        continue
                    lits = c.lits
                    # Make sure the false literal is at position 1.
                    first = lits[0]
                    if first == false_lit:
                        first = lits[0] = lits[1]
                        lits[1] = false_lit
                    if litval[first] == 1:
                        keep((first, c))
                        continue
                    # Search for a replacement watch: lits[2] first, the
                    # only candidate of a ternary clause (most Tseitin
                    # clauses), then the rest of a longer one.
                    lk = lits[2]
                    if litval[lk] != -1:
                        lits[1] = lk
                        lits[2] = false_lit
                        watches[lk].append((first, c))
                        continue
                    if len(lits) > 3:
                        found = False
                        for k in range(3, len(lits)):
                            lk = lits[k]
                            if litval[lk] != -1:
                                lits[1] = lk
                                lits[k] = false_lit
                                watches[lk].append((first, c))
                                found = True
                                break
                        if found:
                            continue
                    keep((first, c))
                    if litval[first] == -1:
                        # Conflict: keep remaining watches and bail out.
                        new_ws.extend(entries)
                        confl = c
                        break
                    # Unit clause.
                    var = first >> 1
                    litval[first] = 1
                    litval[first ^ 1] = -1
                    level[var] = cur_level
                    reason[var] = c
                    phase[var] = not (first & 1)
                    trail.append(first)
                watches[false_lit] = new_ws
                if confl is not None:
                    break
            if confl is not None or not decide:
                break
            if learnt_cap is not None and num_learnts >= learnt_cap + len(trail):
                break  # the learnt database is due for another reduce
        stats.propagations += qhead - start
        self._qhead = len(trail) if confl is not None else qhead
        return confl



def _outcome(solver, method: str, *args, **kwargs):
    """``(value, None)`` or ``(None, exception type)`` of one call."""
    try:
        return getattr(solver, method)(*args, **kwargs), None
    except BudgetExhausted as exc:
        return exc.conflicts, BudgetExhausted


class _Pair:
    """The production solver and the reference, driven in lockstep."""

    def __init__(self) -> None:
        self.new = Solver()
        self.ref = HeapOrderSolver()

    def call(self, method: str, *args, **kwargs):
        got = _outcome(self.new, method, *args, **kwargs)
        want = _outcome(self.ref, method, *args, **kwargs)
        assert got == want, (method, args, kwargs)
        assert self.new.stats.as_dict() == self.ref.stats.as_dict(), method
        assert self.new.model() == self.ref.model(), method
        assert (self.new.num_vars, self.new.num_clauses, self.new.num_learnts) == (
            self.ref.num_vars, self.ref.num_clauses, self.ref.num_learnts
        ), method
        return got[0]

    def force_rescale(self) -> None:
        """Put both on the edge of an activity rescale: the next bumps
        push an activity past 1e100."""
        for solver in (self.new, self.ref):
            solver._var_inc = 1e99


def _lit(draw, num_vars: int, floor: int = 0) -> int:
    var = draw(st.integers(floor + 1, num_vars))
    return var if draw(st.booleans()) else -var


#: Drawn uniformly, so ``solve`` (listed twice) comes up twice as often.
_OPS = (
    "add_clause", "solve", "solve", "checkpoint", "rollback",
    "import_learnts", "simplify", "rescale",
)


@given(
    seed=st.integers(0, 10**6),
    num_vars=st.integers(6, 90),
    ratio=st.sampled_from([2.0, 3.5, 4.26, 5.0]),
    data=st.data(),
)
def test_random_call_sequences_match_reference(seed, num_vars, ratio, data):
    draw = data.draw
    pair = _Pair()
    for clause in random_ksat(num_vars, int(num_vars * ratio), k=3, seed=seed).clauses:
        pair.call("add_clause", clause)
    marks: list[tuple[int, int, int]] = []
    for _ in range(draw(st.integers(1, 20))):
        op = draw(st.sampled_from(_OPS))
        nvars = pair.new.num_vars
        if op == "add_clause":
            lits = [_lit(draw, nvars + 2) for _ in range(draw(st.integers(1, 4)))]
            if marks:
                # Frame contract: mention a variable newer than the mark.
                lits.append(_lit(draw, nvars + 1, floor=marks[-1][0]))
            pair.call("add_clause", lits)
        elif op == "solve":
            assumptions = [_lit(draw, nvars) for _ in range(draw(st.integers(0, 3)))]
            budget = draw(st.none() | st.integers(0, 60))
            pair.call("solve", assumptions=assumptions, conflict_budget=budget)
        elif op == "checkpoint":
            marks.append(pair.call("checkpoint"))
        elif op == "rollback" and marks:
            index = draw(st.integers(0, len(marks) - 1))
            pair.call("rollback", marks[index])
            del marks[index:]
        elif op == "import_learnts":
            max_var = marks[0][0] if marks else None
            exported = pair.call("export_learnts", max_var=max_var)
            pair.call("import_learnts", exported)
        elif op == "simplify":
            pair.call("simplify")
        elif op == "rescale":
            pair.force_rescale()
    pair.call("solve")


def _ksat_pair(seed: int, ratio: float = 4.26, num_vars: int = 45) -> _Pair:
    """A pair holding a random 3-SAT instance (near the threshold by default)."""
    pair = _Pair()
    for clause in random_ksat(num_vars, int(num_vars * ratio), k=3, seed=seed).clauses:
        pair.call("add_clause", clause)
    return pair


@pytest.mark.parametrize("seed", range(4))
def test_activity_rescale(seed):
    pair = _ksat_pair(seed)
    pair.force_rescale()
    pair.call("solve")
    assert pair.new.stats.conflicts > 0
    assert pair.new._var_inc < 1e99  # rescaled mid-search
    assert pair.new._act == pair.ref._act
    for _ in range(3):
        pair.call("solve", assumptions=[seed + 1])
        pair.call("solve", assumptions=[-(seed + 1)])


@pytest.mark.parametrize("seed", range(4))
def test_rollback_while_run_partly_stale(seed):
    pair = _ksat_pair(seed, ratio=3.0)
    base = pair.new.num_vars
    mark = pair.call("checkpoint")
    # A satisfiable frame, active only under the assumption -1: the
    # model it leaves holds variables bumped since the run was sorted.
    for clause in random_ksat(40, 150, k=3, seed=seed + 100).clauses:
        shifted = [lit + base if lit > 0 else lit - base for lit in clause]
        pair.call("add_clause", shifted + [1])
    assert pair.call("solve", assumptions=[-1])
    new = pair.new
    assert any(-key != new._act[var] for key, var in new._run), "no stale run entry"
    pair.call("rollback", mark)
    for assumption in ([], [1], [-2, 3]):
        pair.call("solve", assumptions=assumption)


@pytest.mark.parametrize("seed", range(3))
def test_restarts_mid_search(seed):
    pair = _ksat_pair(seed, num_vars=100)
    pair.call("solve")
    for var in range(1, 6):
        pair.call("solve", assumptions=[var, -(var + 1)])
    assert pair.new.stats.restarts > 0
