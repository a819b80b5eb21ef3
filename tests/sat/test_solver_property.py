"""Property-based tests: the solver against brute-force ground truth."""

import functools
import random

from hypothesis import given, settings, strategies as st

from repro.sat.cnf import CNF
from repro.sat.random_cnf import brute_force_satisfiable, random_ksat
from repro.sat.solver import Solver


@given(
    seed=st.integers(0, 10_000),
    ratio=st.sampled_from([2.0, 3.5, 4.26, 5.0, 6.5]),
)
def test_agrees_with_brute_force_3sat(seed, ratio):
    cnf = random_ksat(10, int(10 * ratio), k=3, seed=seed)
    solver = cnf.to_solver()
    expected = brute_force_satisfiable(cnf)
    got = solver.solve()
    assert got == expected
    if got:
        assignment = {abs(l): l > 0 for l in solver.model()}
        assert cnf.is_satisfied_by(assignment)


@given(seed=st.integers(0, 10_000))
def test_agrees_with_brute_force_2sat(seed):
    cnf = random_ksat(12, 30, k=2, seed=seed)
    assert cnf.to_solver().solve() == brute_force_satisfiable(cnf)


@given(
    clauses=st.lists(
        st.lists(
            st.integers(-6, 6).filter(lambda x: x != 0),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=25,
    )
)
def test_arbitrary_clause_lists(clauses):
    """Messy clauses — duplicates, tautologies, units — never break it."""
    cnf = CNF(6)
    for clause in clauses:
        cnf.add_clause(clause)
    solver = cnf.to_solver()
    expected = brute_force_satisfiable(cnf)
    got = solver.solve()
    assert got == expected
    if got:
        assignment = {abs(l): l > 0 for l in solver.model()}
        assert cnf.is_satisfied_by(assignment)


@given(seed=st.integers(0, 10_000), flip=st.integers(1, 10))
def test_assumptions_equal_unit_clauses(seed, flip):
    """solve(assumptions=[l]) must agree with add_clause([l]) + solve()."""
    cnf = random_ksat(10, 35, k=3, seed=seed)
    with_assumption = cnf.to_solver().solve(assumptions=[flip])
    cnf2 = cnf.copy()
    cnf2.add_clause([flip])
    with_unit = cnf2.to_solver().solve()
    assert with_assumption == with_unit


@given(seed=st.integers(0, 10_000))
def test_incremental_equals_monolithic(seed):
    """Adding clauses in two batches matches adding them all at once."""
    cnf = random_ksat(10, 40, k=3, seed=seed)
    half = len(cnf.clauses) // 2
    solver = CNF(10).to_solver()
    for clause in cnf.clauses[:half]:
        solver.add_clause(clause)
    solver.solve()  # intermediate solve must not disturb correctness
    for clause in cnf.clauses[half:]:
        solver.add_clause(clause)
    assert solver.solve() == brute_force_satisfiable(cnf)


# ----------------------------------------------------------------------
# Binary-heavy formulas through frames, simplify and clause exchange
# ----------------------------------------------------------------------
_BASE_VARS = 8


def _binary_heavy(seed: int) -> CNF:
    """2-SAT clauses mixed with 3-SAT ones over ``_BASE_VARS`` variables."""
    cnf = random_ksat(_BASE_VARS, 8, k=2, seed=seed)
    cnf.extend(random_ksat(_BASE_VARS, 20, k=3, seed=seed + 1))
    return cnf


def _verdict(num_vars: int, clauses, assumptions=()) -> bool:
    cnf = CNF(num_vars)
    cnf.add_clauses(clauses)
    cnf.add_clauses([lit] for lit in assumptions)
    return brute_force_satisfiable(cnf)


def _random_lit(rng, num_vars: int) -> int:
    var = rng.randint(1, num_vars)
    return var if rng.random() < 0.5 else -var


def _live_clauses_and_root(solver) -> tuple[list[tuple[int, ...]], set[int]]:
    """The solver's non-deleted clauses (sorted internal literal tuples)
    and the literals of its root trail."""
    live = sorted(
        tuple(sorted(clause.lits))
        for store in (solver._clauses, solver._learnts)
        for clause in store
        if not clause.deleted
    )
    trail = solver._trail
    root_end = solver._trail_lim[0] if solver._trail_lim else len(trail)
    return live, set(trail[:root_end])


def _naive_rescan(clauses, root) -> tuple[list[tuple[int, ...]], set[int]] | None:
    """Shed every clause against the root facts, to a fixpoint: drop the
    root-satisfied ones, strip root-false literals, and move the units
    this leaves onto the root.  ``None`` when a clause runs empty."""
    root = set(root)
    while True:
        kept, units = [], set()
        for clause in clauses:
            if root.intersection(clause):
                continue
            stripped = tuple(lit for lit in clause if lit ^ 1 not in root)
            if not stripped:
                return None
            if len(stripped) == 1:
                units.add(stripped[0])
            else:
                kept.append(stripped)
        if not units:
            return sorted(kept), root
        if any(lit ^ 1 in units for lit in units):
            return None
        root |= units
        clauses = kept


@given(seed=st.integers(0, 10_000))
def test_frames_simplify_and_assumptions_agree_with_brute_force(seed):
    """Random checkpoint/add/solve/simplify/rollback sequences.

    Frame clauses always carry the frame's guard literal (the contract
    the sharded engine keeps), base clauses are only added frame-free,
    every verdict is checked against enumeration of the formula that
    survives at that point, and every ``simplify()`` against a naive
    full rescan.
    """

    rng = random.Random(seed)
    base = _binary_heavy(seed)
    solver = base.to_solver()
    base_clauses = [list(c) for c in base.clauses]
    # Open frames, oldest first: (mark, guard, clauses added in it).
    frames: list[tuple[tuple[int, int], int, list[list[int]]]] = []

    def formula():
        return base_clauses + [c for _, _, added in frames for c in added]

    for _ in range(20):
        op = rng.choice(
            ["open", "open", "add", "add", "add", "solve", "solve",
             "simplify", "simplify", "close", "base", "base", "local"]
        )
        if op == "open" and len(frames) < 2:
            mark = solver.checkpoint()
            frames.append((mark, solver.new_var(), []))
        elif op == "local" and frames:
            # A root fact on a frame variable: rollback drops it from
            # the middle of the root trail.
            clause = [solver.new_var()]
            solver.add_clause(clause)
            frames[-1][2].append(clause)
        elif op == "add" and frames:
            _, guard, added = frames[-1]
            clause = [-guard] + [
                _random_lit(rng, _BASE_VARS) for _ in range(rng.randint(1, 2))
            ]
            solver.add_clause(clause)
            added.append(clause)
        elif op == "base" and not frames:
            clause = [
                _random_lit(rng, _BASE_VARS) for _ in range(rng.randint(1, 2))
            ]
            solver.add_clause(clause)
            base_clauses.append(clause)
        elif op == "simplify":
            # Whether simplify() skips or rescans, what it leaves must
            # equal a naive full rescan of the clauses it started from.
            expected = _naive_rescan(*_live_clauses_and_root(solver))
            if not solver.simplify():
                assert not _verdict(solver.num_vars, formula())
            elif expected is not None:
                assert _live_clauses_and_root(solver) == expected
        elif op == "close" and frames:
            mark, _, _ = frames.pop()
            solver.rollback(mark)
            assert solver.num_vars == mark[0]
        elif op == "solve":
            assumptions = [guard for _, guard, _ in frames] + [
                _random_lit(rng, _BASE_VARS) for _ in range(rng.randint(0, 2))
            ]
            got = solver.solve(assumptions=assumptions)
            assert got == _verdict(solver.num_vars, formula(), assumptions)
            if got:
                model = {abs(lit): lit > 0 for lit in solver.model()}
                assert all(model[abs(a)] == (a > 0) for a in assumptions)
                assert all(
                    any(model[abs(lit)] == (lit > 0) for lit in clause)
                    for clause in formula()
                )
    while frames:
        solver.rollback(frames.pop()[0])
    assert solver.num_vars == _BASE_VARS
    assert solver.solve() == _verdict(_BASE_VARS, base_clauses)


@given(seed=st.integers(0, 10_000), flip=st.integers(1, _BASE_VARS))
def test_export_import_binary_heavy(seed, flip):
    """Learnts (binary ones included) move soundly to a fresh solver."""
    cnf = _binary_heavy(seed)
    donor = cnf.to_solver()
    donor.solve()
    donor.solve(assumptions=[flip])
    exported = donor.export_learnts()
    for clause in exported:
        # Every exported clause is implied: formula AND NOT clause is UNSAT.
        assert not _verdict(_BASE_VARS, cnf.clauses, [-lit for lit in clause])
    receiver = cnf.to_solver()
    receiver.import_learnts(exported)
    expected = brute_force_satisfiable(cnf)
    assert receiver.solve() == expected
    assert receiver.solve(assumptions=[-flip]) == _verdict(
        _BASE_VARS, cnf.clauses, [-flip]
    )


def test_binary_conflict_learns_implied_clause():
    """A conflict on a binary clause is analysed like any other.

    Deciding x1=false (the first decision: all activities tie and the
    saved phase is false) implies x2 and x3 through binary clauses and
    falsifies the binary clause (-x2 | -x3).  The learnt unit x1 lands
    on the root trail, where export_learnts reads it.
    """

    clauses = [[1, 2], [1, 3], [-2, -3], [-1, 4, 5], [-4, -5]]
    solver = Solver()
    solver.add_clauses(clauses)
    assert solver.solve()
    assert solver.stats.conflicts == 1
    assert solver.model_value(1) is True
    exported = solver.export_learnts()
    assert [1] in exported
    for clause in exported:
        assert not _verdict(5, clauses, [-lit for lit in clause])


@given(seed=st.integers(0, 10_000))
def test_pure_2sat_learnts_are_implied(seed):
    """Every conflict in pure 2-SAT is binary; what it learns is implied."""
    cnf = random_ksat(10, 14, k=2, seed=seed)
    solver = cnf.to_solver()
    assert solver.solve() == brute_force_satisfiable(cnf)
    for clause in solver.export_learnts():
        assert not _verdict(10, cnf.clauses, [-lit for lit in clause])


# ----------------------------------------------------------------------
# Random call sequences: every entry point against brute force
# ----------------------------------------------------------------------
_SEQ_BASE_VARS = 6
_SEQ_MAX_VARS = 10
_SEQ_OPS = (
    "base", "open", "open", "close", "close", "guard", "add", "define",
    "local", "solve", "simplify", "exchange", "dip", "dip",
)


@functools.lru_cache(maxsize=None)
def _truth(num_vars: int) -> tuple[int, ...]:
    """Bit ``a`` of entry ``v``: assignment ``a`` (bit ``v - 1`` is
    variable ``v``) makes ``v`` true."""
    return (0,) + tuple(
        sum(1 << a for a in range(1 << num_vars) if a >> (v - 1) & 1)
        for v in range(1, num_vars + 1)
    )


def _models(num_vars: int, clauses) -> int:
    """Every model of ``clauses`` over ``num_vars`` variables, as a
    bitset over the ``2**num_vars`` assignments."""
    truth = _truth(num_vars)
    full = (1 << (1 << num_vars)) - 1
    models = full
    for clause in clauses:
        satisfied = 0
        for lit in clause:
            satisfied |= truth[lit] if lit > 0 else full ^ truth[-lit]
        models &= satisfied
    return models


def _watched_exactly_by_first_two(solver) -> bool:
    """Every live long clause sits in the watch lists of ``lits[0]`` and
    ``lits[1]`` and nowhere else; no deleted clause is watched."""
    expected = sorted(
        (lit, id(clause))
        for store in (solver._clauses, solver._learnts)
        for clause in store
        if not clause.deleted and len(clause.lits) > 2
        for lit in clause.lits[:2]
    )
    watched = sorted(
        (lit, id(entry[1]))
        for lit, ws in enumerate(solver._watches)
        for entry in ws
    )
    return watched == expected


def _rebuild_bins(solver) -> list[list[int]]:
    """The implication lists re-derived from the live binary clauses:
    the full rebuild that ``rollback`` and ``simplify`` once ran."""
    bins: list[list[int]] = [[] for _ in range(2 * (solver.num_vars + 1))]
    for store in (solver._clauses, solver._learnts):
        for clause in store:
            if len(clause.lits) == 2 and not clause.deleted:
                a, b = clause.lits
                bins[a].append(b)
                bins[b].append(a)
    return bins


def _bins_match_live_binaries(solver) -> bool:
    """Every implication list equals, as a multiset, the one the full
    rebuild gives: each live binary clause has exactly its two entries."""
    rebuilt = _rebuild_bins(solver)
    return len(solver._bins) == len(rebuilt) and all(
        sorted(got) == sorted(want) for got, want in zip(solver._bins, rebuilt)
    )


# Ten times the profile's example count: 300 in tier-1, 3,000 under
# ``--hypothesis-profile=deep``.
@settings(max_examples=10 * settings.default.max_examples)
@given(
    ops=st.lists(st.sampled_from(_SEQ_OPS), min_size=10, max_size=40),
    seed=st.integers(0, 2**16),
)
def test_call_sequences_agree_with_brute_force(ops, seed):
    """add_clause, solve under assumptions, nested checkpoint/rollback
    frames, simplify and a learnt export/import round trip, in any
    order.  Frames keep the contract :class:`ShardEngine` keeps: every
    clause added inside a frame mentions a variable allocated in that
    frame (its guard, a Tseitin-defined gate, a fresh root fact).
    Frames may open back to back, so nested marks can be equal.

    A ``dip`` replays the DIP loop on the kept assumption prefix: after
    a satisfiable call under assumptions (it makes one when the last
    call left none) it adds a guarded clause, a Tseitin AND over
    literals the prefix assigns, a clause with one free literal, one
    false at the prefix and a unit, then solves again under exactly the
    previous assumptions.  After every call the watch lists hold
    exactly the live long clauses and the implication lists exactly
    the live binary ones."""
    rng = random.Random(seed)

    def lit_over(num_vars: int) -> int:
        var = rng.randint(1, num_vars)
        return var if rng.random() < 0.5 else -var

    solver = Solver()
    for _ in range(_SEQ_BASE_VARS):
        solver.new_var()
    # A binary-heavy start whose last clause is a unit: the clauses it
    # satisfies wait for the first simplify() to shed them.
    base = random_ksat(_SEQ_BASE_VARS, 4, k=2, seed=seed).clauses
    base += random_ksat(_SEQ_BASE_VARS, 2, k=3, seed=seed + 1).clauses
    base.append([lit_over(_SEQ_BASE_VARS)])
    solver.add_clauses(base)
    # Open frames, oldest first: [mark, guard or None, clauses added].
    frames: list[list] = []
    # Assumptions of the last satisfiable solve, for a ``dip`` to repeat.
    prev: list[int] | None = None

    def formula() -> list[list[int]]:
        return base + [c for frame in frames for c in frame[2]]

    def add(clause: list[int]) -> None:
        solver.add_clause(clause)
        frames[-1][2].append(clause)

    def guards() -> list[int]:
        return [frame[1] for frame in frames if frame[1] is not None]

    def lists_hold() -> bool:
        return _watched_exactly_by_first_two(solver) and _bins_match_live_binaries(
            solver
        )

    def check_solve(assumptions: list[int]) -> bool:
        num_vars = solver.num_vars
        got = solver.solve(assumptions=assumptions)
        clauses = formula() + [[lit] for lit in assumptions]
        assert got == bool(_models(num_vars, clauses))
        if got:
            model = set(solver.model())
            assert all(any(lit in model for lit in c) for c in clauses)
        return got

    def dip(assumptions: list[int]) -> bool:
        """Clauses added on the kept prefix, then the same solve again."""
        guard = frames[-1][1] if frames else None

        def lit_value(lit: int) -> bool | None:
            value = solver.model_value(abs(lit))
            return None if value is None else value == (lit > 0)

        def put(clause: list[int]) -> None:
            if frames:
                add(clause)
            else:
                solver.add_clause(clause)
                base.append(clause)
            assert lists_hold()
            if solver._trail_lim:  # still on the kept prefix
                # A clause left one non-false literal implies it at once.
                open_lits = [lit for lit in clause if lit_value(lit) is not False]
                assert len(open_lits) != 1 or lit_value(open_lits[0])

        top = _SEQ_BASE_VARS if guard is None else solver.num_vars
        frame_lit = [] if guard is None else [-guard]
        # The guarded DIP constraint: the model goes, the prefix stays.
        width = rng.randint(2 - len(frame_lit), 2)
        put(frame_lit + [lit_over(top) for _ in range(width)])
        # The other kinds in random order, each maybe: a clause false at
        # the prefix, or a unit, sends the solver back to the root, so
        # those two come up less often.
        kinds = [
            kind for kind, odds in (
                ("and", 0.6), ("one_free", 0.6), ("false", 0.3), ("unit", 0.3)
            )
            if rng.random() < odds
        ]
        rng.shuffle(kinds)
        for kind in kinds:
            value = solver.model_value  # the prefix's assignment, if kept
            assigned = [
                v if value(v) else -v for v in range(1, top + 1)
                if value(v) is not None
            ]
            false = [-lit for lit in assigned]
            free = [v for v in range(1, top + 1) if value(v) is None]
            room = solver.num_vars < _SEQ_MAX_VARS
            if kind == "and" and guard is not None and assigned and room:
                # out = a AND b over assigned literals: on the prefix one
                # of its clauses implies -out or is satisfied.
                a, b = rng.choice(assigned), rng.choice(false + assigned)
                out = solver.new_var()
                for clause in ([-out, a], [-out, b], [out, -a, -b]):
                    put(clause)
            elif kind == "one_free" and free:
                lit = rng.choice(free) * rng.choice((1, -1))
                put(frame_lit + rng.sample(false, min(len(false), 2)) + [lit])
            elif kind == "false" and false and (frame_lit or len(false) > 1):
                put(frame_lit + rng.sample(false, min(len(false), 2)))
            elif kind == "unit" and guard is None:
                put([lit_over(_SEQ_BASE_VARS)])
            elif kind == "unit" and room:
                put([solver.new_var()])
        return check_solve(assumptions)

    for op in ops:
        room = solver.num_vars < _SEQ_MAX_VARS
        if op == "base" and not frames:
            clause = [lit_over(_SEQ_BASE_VARS) for _ in range(rng.randint(1, 3))]
            solver.add_clause(clause)
            base.append(clause)
        elif op == "open" and len(frames) < 3:
            frames.append([solver.checkpoint(), None, []])
        elif op == "close" and frames:
            mark = frames.pop()[0]
            solver.rollback(mark)
            assert solver.num_vars == mark[0]
            prev = None  # its assumptions may name dropped variables
        elif op == "guard" and frames and frames[-1][1] is None and room:
            frames[-1][1] = solver.new_var()
        elif op == "add" and frames and frames[-1][1] is not None:
            add([-frames[-1][1]] + [
                lit_over(_SEQ_BASE_VARS) for _ in range(rng.randint(1, 2))
            ])
        elif op == "define" and frames and room:
            # out = a AND b: a conservative extension, like a copy gate.
            a, b = lit_over(solver.num_vars), lit_over(solver.num_vars)
            out = solver.new_var()
            for clause in ([-out, a], [-out, b], [out, -a, -b]):
                add(clause)
        elif op == "local" and frames and room:
            add([solver.new_var()])
        elif op == "solve":
            prev = assumptions = guards() + [
                lit_over(solver.num_vars) for _ in range(rng.randint(0, 3))
            ]
            if not check_solve(assumptions):
                prev = None
        elif op == "dip" and (not frames or frames[-1][1]):
            if not prev:  # no prefix to keep yet: make one
                prev = assumptions = guards() + [
                    lit_over(solver.num_vars) for _ in range(rng.randint(1, 3))
                ]
                if not check_solve(assumptions):
                    prev = None
            if prev and not dip(prev):
                prev = None
        elif op == "simplify":
            if not solver.simplify():
                assert not _models(solver.num_vars, formula())
        elif op == "exchange":
            # Learnts over base variables are implied by the base alone.
            exported = solver.export_learnts(max_var=_SEQ_BASE_VARS)
            base_models = _models(_SEQ_BASE_VARS, base)
            for clause in exported:
                refuted = _models(_SEQ_BASE_VARS, [[-lit] for lit in clause])
                assert not base_models & refuted
            fresh = Solver()
            for _ in range(_SEQ_BASE_VARS):
                fresh.new_var()
            fresh.add_clauses(base)
            fresh.import_learnts(exported)
            assumptions = [lit_over(_SEQ_BASE_VARS) for _ in range(2)]
            assert fresh.solve(assumptions=assumptions) == bool(
                _models(_SEQ_BASE_VARS, base + [[lit] for lit in assumptions])
            )
        assert lists_hold()
    while frames:
        solver.rollback(frames.pop()[0])
    assert solver.num_vars == _SEQ_BASE_VARS
    assert solver.solve() == bool(_models(_SEQ_BASE_VARS, base))
