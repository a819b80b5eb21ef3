"""A conflict-driven clause-learning (CDCL) SAT solver.

This is the MiniSAT recipe in pure Python:

* unit propagation over dedicated binary implication lists (a flat
  list of implied literals per literal, no clause object) followed by
  two-watched-literal lists for longer clauses,
* VSIDS variable activities with exponential decay, ordered by a
  sorted *run* of ``(-activity, var)`` entries that a cursor scans
  (each decision level records the cursor it opened at, and a
  backtrack restores that mark), plus a small heap for the variables
  bumped since the run was last sorted,
* phase saving,
* Luby-sequence restarts,
* first-UIP conflict analysis with basic clause minimization,
* learned-clause database reduction driven by LBD ("glue") and
  activity,
* incremental use: clauses may be added between ``solve()`` calls and
  each call may carry assumptions,
* warm starts: :meth:`Solver.export_learnts` /
  :meth:`Solver.import_learnts` move learned clauses between solver
  instances that share an encoding prefix (the sharded multi-key
  engine primes worker solvers this way).

Internally a literal is encoded as ``2 * var`` (positive) or
``2 * var + 1`` (negative) so that negation is ``lit ^ 1`` and the
variable is ``lit >> 1``.  The public API speaks DIMACS integers.

A variable's *reason* is ``None`` (decision or root unit), the
:class:`_Clause` that implied it, or — for a binary implication — the
implying (false) literal as a plain ``int``.  Binary clauses still
live in the clause stores as :class:`_Clause` objects, so clause
counts, frames, exports and ``simplify`` see every clause; only
propagation reads the flat lists, which :meth:`Solver.rollback` and
:meth:`Solver.simplify` rebuild from the surviving clauses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


_LUBY_UNIT = 128  # conflicts per Luby step
_DECAY_RAMP_INTERVAL = 256  # conflicts between VSIDS decay-ramp steps
_SHORT_CLAUSE = 8  # longer clauses dedupe their literals through a set
_RUN_REFRESH = 8  # re-sort the run at level 0 once the heap holds 1/8 of vars


def luby(i: int) -> int:
    """Return the *i*-th element (0-based) of the Luby sequence.

    The sequence is 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... and is the
    classic universal restart schedule (MiniSAT's formulation).
    """
    if i < 0:
        raise ValueError("Luby index is 0-based")
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


@dataclass
class SolverStats:
    """Counters accumulated over the lifetime of a :class:`Solver`."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    removed: int = 0
    max_decision_level: int = 0
    solve_calls: int = 0
    budget_aborts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": self.learned,
            "removed": self.removed,
            "max_decision_level": self.max_decision_level,
            "solve_calls": self.solve_calls,
            "budget_aborts": self.budget_aborts,
        }


class _Clause:
    __slots__ = ("lits", "learnt", "lbd", "act", "deleted")

    def __init__(self, lits: list[int], learnt: bool = False):
        self.lits = lits
        self.learnt = learnt
        self.lbd = 0
        self.act = 0.0
        self.deleted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def ext(lit: int) -> int:
            var = lit >> 1
            return -var if lit & 1 else var

        kind = "L" if self.learnt else "P"
        return f"_Clause({kind}, {[ext(x) for x in self.lits]})"


class Solver:
    """Incremental CDCL SAT solver.

    Usage:

    >>> s = Solver()
    >>> s.add_clause([1, 2])
    True
    >>> s.add_clause([-1, 2])
    True
    >>> s.solve()
    True
    >>> s.model_value(2)
    True
    >>> s.solve(assumptions=[-2])
    False

    Clauses may be added after a ``solve()`` call; learned clauses are
    kept, which makes the DIP loop of the SAT attack cheap.
    """

    #: Registry name of this backend (see :mod:`repro.sat.registry`).
    backend_name = "python"

    def __init__(self) -> None:
        self.stats = SolverStats()
        self._nvars = 0
        # Indexed by internal literal.
        self._litval: list[int] = [0, 0]  # 1 true, -1 false, 0 unset
        # Binary implication lists: ``_bins[lit]`` holds the literals
        # implied when ``lit`` becomes false (one entry per binary
        # clause per literal; no clause object on the hot path).
        self._bins: list[list[int]] = [[], []]
        # Watch lists of clauses with three or more literals hold
        # ``(blocker, clause)`` pairs (MiniSAT 2.2's "watcher with
        # blocker"): the blocker is some other literal of the clause,
        # checked before touching the clause object at all.
        self._watches: list[list[tuple[int, _Clause]]] = [[], []]
        # Indexed by variable.
        self._level: list[int] = [0]
        # None (decision/root unit), the implying clause, or the
        # implying false literal of a binary clause.
        self._reason: list[_Clause | int | None] = [None]
        self._act: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._seen = bytearray(1)
        # 1 while the run or the heap holds an entry carrying the
        # variable's current activity (entries left behind by a bump
        # are stale).
        self._queued = bytearray(1)

        self._clauses: list[_Clause] = []
        self._learnts: list[_Clause] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # Outstanding checkpoint marks, oldest first.  While any frame
        # is open, simplify() must not compact the clause list (marks
        # snapshot its length), so it switches to in-place deletion.
        self._frames: list[tuple[int, int, int]] = []
        # Root-trail length at simplify()'s last full pass (MiniSAT's
        # ``simpDB_assigns``); whether it left flagged clauses in a frame.
        self._simp_assigns, self._simp_held = 0, False

        self._var_inc = 1.0
        # Glucose-style decay ramp: start aggressive (0.80) so early
        # conflicts focus the search, relax towards 0.95 as the run
        # matures (every _DECAY_RAMP_INTERVAL conflicts, +0.01).
        self._var_decay_factor = 0.80
        self._var_decay = 1.0 / self._var_decay_factor
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        # Decision order.  Every unassigned variable has exactly one
        # current ``(-activity, var)`` entry: in the sorted run at or
        # after the cursor ``_run_head``, or in the min-heap ``_order``
        # (variables bumped since the run was sorted).  Run entries
        # before the cursor belong to variables assigned at or below
        # the current level, or are stale; ``_run_lim[i]`` is the
        # cursor level ``i + 1`` opened at.
        self._run: list[tuple[float, int]] = []
        self._run_head = 0
        self._run_lim: list[int] = []
        self._order: list[tuple[float, int]] = []

        self._ok = True

    # ------------------------------------------------------------------
    # Variable and clause management
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def num_learnts(self) -> int:
        return len(self._learnts)

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self._nvars += 1
        v = self._nvars
        self._litval.extend((0, 0))
        self._bins.append([])
        self._bins.append([])
        self._watches.append([])
        self._watches.append([])
        self._level.append(0)
        self._reason.append(None)
        self._act.append(0.0)
        self._phase.append(False)
        self._seen.append(0)
        self._queued.append(1)
        # Every run key is <= 0.0 and every run variable < v: still sorted.
        self._run.append((0.0, v))
        return v

    def _ensure_var(self, v: int) -> None:
        while self._nvars < v:
            self.new_var()

    def _normalize_clause(self, lits) -> list[int] | None:
        """DIMACS literals -> minimal internal clause, or None.

        Allocates missing variables, drops duplicate and root-falsified
        literals, and returns ``None`` when the clause is vacuous (a
        tautology or already satisfied at root level).  The solver must
        be at decision level 0, so every assigned variable is a root
        fact.  Shared by :meth:`add_clause` and :meth:`import_learnts`
        so the two entry points cannot diverge.
        """
        if lits.__class__ is not list:
            lits = list(lits)
        internal: list[int] = []
        # Short clauses (every Tseitin clause) test duplicates on the
        # clause itself; only long ones pay for a set.
        seen = internal if len(lits) <= _SHORT_CLAUSE else set()
        litval = self._litval
        for ext in lits:
            if ext == 0:
                raise ValueError("0 is not a valid DIMACS literal")
            if ext > 0:
                var, lit = ext, 2 * ext
            else:
                var, lit = -ext, 1 - 2 * ext
            if var > self._nvars:
                self._ensure_var(var)
            if lit ^ 1 in seen:
                return None  # tautology: x OR !x
            if lit in seen:
                continue
            val = litval[lit]
            if val == 1:
                return None  # already satisfied at root
            if val == -1:
                continue  # falsified at root: drop the literal
            internal.append(lit)
            if seen is not internal:
                seen.add(lit)
        return internal

    def add_clause(self, lits) -> bool:
        """Add a clause of DIMACS literals.

        Returns ``False`` if the formula is now trivially unsatisfiable
        (adding the empty clause, or a unit contradicting level-0
        assignments).  The solver must be at decision level 0, which is
        always true between ``solve()`` calls.
        """
        if not self._ok:
            return False
        if self._trail_lim:
            self._cancel_until(0)  # leave any previous solution state
        internal = self._normalize_clause(lits)
        if internal is None:
            return True

        if not internal:
            self._ok = False
            return False
        if len(internal) == 1:
            lit = internal[0]
            if self._litval[lit] == -1:
                self._ok = False
                return False
            if self._litval[lit] == 0:
                self._enqueue(lit, None)
                self._ok = self._propagate() is None
            return self._ok

        clause = _Clause(internal)
        self._clauses.append(clause)
        self._attach(clause)
        return True

    def _attach(self, clause: _Clause) -> None:
        """Hand a new clause to propagation: lists if binary, else watches."""
        a, b = clause.lits[0], clause.lits[1]
        if len(clause.lits) == 2:
            self._bins[a].append(b)
            self._bins[b].append(a)
        else:
            self._watches[a].append((b, clause))
            self._watches[b].append((a, clause))

    def _rebuild_bins(self) -> None:
        """Re-derive the implication lists from the live binary clauses."""
        bins: list[list[int]] = [[] for _ in range(2 * (self._nvars + 1))]
        for store in (self._clauses, self._learnts):
            for clause in store:
                lits = clause.lits
                if len(lits) == 2 and not clause.deleted:
                    a, b = lits
                    bins[a].append(b)
                    bins[b].append(a)
        self._bins = bins

    def _unwatch(self, deleted: list[_Clause]) -> None:
        """Filter the just-deleted clauses out of their watch lists.

        A long clause is watched by exactly ``lits[0]`` and ``lits[1]``,
        so only those lists change (lists of dropped variables are gone
        already).  Every deletion site calls this before the next
        propagation, so propagation never meets a deleted clause, and
        the watchers left keep their order.
        """
        watches = self._watches
        touched = {
            lit
            for clause in deleted
            if len(clause.lits) > 2
            for lit in clause.lits[:2]
            if lit < len(watches)
        }
        for lit in touched:
            watches[lit] = [entry for entry in watches[lit] if not entry[1].deleted]

    def add_clauses(self, clause_iter) -> bool:
        """Add many DIMACS clauses; returns the conjunction of results."""
        ok = True
        for clause in clause_iter:
            ok = self.add_clause(clause) and ok
        return ok

    def simplify(self) -> bool:
        """Root-level preprocessing: shed what level-0 facts decide.

        After propagating to fixpoint, drops clauses satisfied at the
        root and strips root-falsified literals from the rest — the
        classic MiniSAT ``simplify()``.  With pinned miter inputs this
        constant-propagates the pins through the shared logic before
        the DIP loop starts paying for them on every conflict.

        Safe inside :meth:`checkpoint` frames: marks snapshot the
        clause-list *length*, so while any frame is outstanding the
        shed clauses are flagged ``deleted`` in place (export skips
        them, the watch and implication lists are rebuilt)
        instead of compacting the list; the next frame-free call
        compacts for real.  Level-0 facts are
        implied by the formula itself — unit learnts are derived by
        resolution, never from assumptions, which live on decision
        levels — so shedding against them stays sound across
        :meth:`rollback`.  A call that finds no new root fact since its
        last full pass (and, frame-free, no flagged clause to compact)
        returns right after propagation, so a shard frame pays only for
        the facts it adds.  Returns ``False`` if the formula is
        unsatisfiable at the root.
        """
        if not self._ok:
            return False
        self._cancel_until(0)
        if self._propagate() is not None:
            self._ok = False
            return False
        trail = self._trail
        if len(trail) == self._simp_assigns and (self._frames or not self._simp_held):
            # Every clause added since was normalized against this root.
            return True
        root_true = set(trail)
        root_false = {lit ^ 1 for lit in trail}
        # Marks snapshot len(self._clauses) only; the learnt store is
        # filtered by variable on rollback, so it may always compact.
        stores = (
            (self._clauses, bool(self._frames)),
            (self._learnts, False),
        )
        bins_changed = held = False
        shed: list[_Clause] = []
        for store, in_frame in stores:
            kept: list[_Clause] = []
            for clause in store:
                if clause.deleted:
                    if in_frame:
                        kept.append(clause)  # hold the list length
                        held = True
                    continue
                lits = clause.lits
                if not root_true.isdisjoint(lits):
                    # Satisfied at root: the watch or implication
                    # lists are rebuilt below.
                    clause.deleted = True
                    bins_changed |= len(lits) == 2
                    shed.append(clause)
                    if clause.learnt:
                        self.stats.removed += 1
                    if in_frame:
                        kept.append(clause)
                        held = True
                    continue
                if not root_false.isdisjoint(lits):
                    # At a root fixpoint both watched literals of an
                    # unsatisfied clause are unassigned, so stripping
                    # falsified tail literals keeps lits[0]/lits[1] —
                    # and with them the watch invariants — intact.
                    stripped = [lit for lit in lits if lit not in root_false]
                    if len(stripped) == 2:
                        # Now binary: move it to the implication lists.
                        for lit in stripped:
                            self._watches[lit] = [
                                entry for entry in self._watches[lit]
                                if entry[1] is not clause
                            ]
                        bins_changed = True
                    if len(stripped) >= 2:
                        clause.lits = stripped
                kept.append(clause)
            store[:] = kept
        if bins_changed:
            self._rebuild_bins()
        self._unwatch(shed)
        self._simp_assigns, self._simp_held = len(trail), held
        return True

    # ------------------------------------------------------------------
    # Checkpoint / rollback frames
    # ------------------------------------------------------------------
    def checkpoint(self) -> tuple[int, int, int]:
        """Snapshot the variable and clause counts for :meth:`rollback`.

        The solver is brought back to decision level 0 first (always
        true between ``solve()`` calls anyway).  Pair with
        :meth:`rollback` to use the solver in *frames*: everything
        allocated after the checkpoint — variables, problem clauses,
        learned clauses touching the new variables — can be discarded
        wholesale while learned clauses over checkpoint-time variables
        survive.  The sharded multi-key engine runs every sub-space
        shard in such a frame: shard-local DIP constraints vanish,
        circuit-structure learning carries over warm.

        Frame contract: every clause added inside a frame must mention
        a variable allocated after its mark, and root facts of
        surviving variables outlive :meth:`rollback`.  The mark is
        ``(num_vars, num_clauses, depth)``; ``depth`` (the number of
        frames already open) tells nested frames with equal counts
        apart.
        """
        self._cancel_until(0)
        mark = (self._nvars, len(self._clauses), len(self._frames))
        self._frames.append(mark)
        return mark

    def rollback(self, mark: tuple[int, int, int]) -> None:
        """Discard all variables and clauses added after ``mark``.

        Learned clauses confined to checkpoint-time variables are kept:
        they were derived from clauses over those variables only (a
        clause mentioning a post-checkpoint variable can only be
        resolved away via other post-checkpoint clauses, and Tseitin
        definitions of fresh variables are conservative extensions), so
        they remain implied by the surviving formula.  That is the
        frame contract of :meth:`checkpoint`: every clause added inside
        a frame must mention a variable allocated after its mark, and
        root facts of surviving variables outlive the rollback.  The
        binary implication lists and the decision run are rebuilt from
        what survives.  Frames opened before ``mark`` stay open.
        """
        nvars, nclauses, depth = mark
        if nvars > self._nvars or nclauses > len(self._clauses):
            raise ValueError("rollback mark is from the future")
        self._cancel_until(0)
        # Close this frame and any nested inside it.
        del self._frames[depth:]
        dropped = self._clauses[nclauses:]
        del self._clauses[nclauses:]
        kept: list[_Clause] = []
        for clause in self._learnts:
            if max(clause.lits) >> 1 > nvars:
                dropped.append(clause)
                self.stats.removed += 1
            else:
                kept.append(clause)
        self._learnts = kept
        for clause in dropped:
            clause.deleted = True
        # Root assignments of dropped variables disappear with them;
        # simplify()'s mark keeps counting the surviving shed ones.
        shed = self._trail[: self._simp_assigns]
        self._simp_assigns -= sum(lit >> 1 > nvars for lit in shed)
        self._trail = [lit for lit in self._trail if lit >> 1 <= nvars]
        self._qhead = len(self._trail)
        del self._litval[2 * (nvars + 1):]
        del self._watches[2 * (nvars + 1):]
        del self._level[nvars + 1:]
        del self._reason[nvars + 1:]
        del self._act[nvars + 1:]
        del self._phase[nvars + 1:]
        del self._seen[nvars + 1:]
        del self._queued[nvars + 1:]
        self._nvars = nvars
        self._rebuild_order()
        self._rebuild_bins()
        self._unwatch(dropped)

    # ------------------------------------------------------------------
    # Warm-start clause exchange
    # ------------------------------------------------------------------
    def export_learnts(
        self, max_var: int | None = None, max_lbd: int | None = None
    ) -> list[list[int]]:
        """Learned clauses as DIMACS lists, filtered for sound reuse.

        Args:
            max_var: Keep only clauses whose variables are all
                ``<= max_var``.  Callers that share an encoding *prefix*
                (e.g. the base miter of the sharded engine) pass the
                prefix's variable count: clauses confined to the prefix
                cannot have been derived from guarded or
                solver-local extension clauses, so they are implied by
                the prefix alone and safe to import elsewhere.
            max_lbd: Keep only clauses with LBD ("glue") at most this —
                the classic quality filter for clause sharing.

        Returns clauses suitable for :meth:`import_learnts` on another
        solver holding the same encoding prefix (identical variable
        numbering).

        Root-level assignments are exported as **unit clauses**: the
        search enqueues a length-1 learnt directly on the trail instead
        of recording a clause object, so without this the strongest
        derived facts would silently vanish from a warm start.  Only
        the level-0 prefix of the trail is read (a model left by a SAT
        answer lives above the first decision mark), and ``max_var``
        filters units exactly like longer clauses.
        """
        exported: list[list[int]] = []
        root_end = self._trail_lim[0] if self._trail_lim else len(self._trail)
        for lit in self._trail[:root_end]:
            var = lit >> 1
            if max_var is not None and var > max_var:
                continue
            exported.append([-var if lit & 1 else var])
        for clause in self._learnts:
            if clause.deleted:
                continue
            if max_lbd is not None and clause.lbd > max_lbd:
                continue
            lits = clause.lits
            if max_var is not None and any(lit >> 1 > max_var for lit in lits):
                continue
            exported.append(
                [-(lit >> 1) if lit & 1 else lit >> 1 for lit in lits]
            )
        return exported

    def import_learnts(self, clauses) -> int:
        """Install externally derived clauses as *learned* clauses.

        Unlike :meth:`add_clauses`, imported clauses stay eligible for
        learned-database reduction, so a bad import cannot permanently
        bloat the solver.  Clauses must be logically implied by the
        solver's problem clauses (see :meth:`export_learnts` for how
        the sharded engine guarantees that).  Returns the number of
        clauses actually installed (tautologies and root-satisfied
        clauses are dropped).
        """
        imported = 0
        self._cancel_until(0)  # once: the loop below stays at root level
        for ext_lits in clauses:
            if not self._ok:
                break
            internal = self._normalize_clause(ext_lits)
            if internal is None:
                continue
            if not internal:
                self._ok = False
                break
            if len(internal) == 1:
                lit = internal[0]
                if self._litval[lit] == -1:
                    self._ok = False
                    break
                if self._litval[lit] == 0:
                    self._enqueue(lit, None)
                    self._ok = self._propagate() is None
                imported += 1
                continue
            clause = _Clause(internal, learnt=True)
            clause.lbd = len(internal)  # pessimistic glue for imports
            clause.act = self._cla_inc
            self._learnts.append(clause)
            self._attach(clause)
            imported += 1
        return imported

    # ------------------------------------------------------------------
    # Assignment trail
    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason: _Clause | int | None) -> None:
        var = lit >> 1
        self._litval[lit] = 1
        self._litval[lit ^ 1] = -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = not (lit & 1)
        self._trail.append(lit)

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        bound = trail_lim[level]
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
            # A variable whose run entry is current is back in play
            # once the cursor mark is restored; only bumped or
            # heap-popped ones need a heap entry.
            if not queued[var]:
                queued[var] = 1
                batch.append((-act[var], var))
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = bound
        self._run_head = self._run_lim[level]
        del self._run_lim[level:]
        order = self._order
        size = len(order) + len(batch)
        if (level == 0 and size * _RUN_REFRESH >= self._nvars) or (
            size > 4 * self._nvars + 1024  # shed accumulated stale entries
        ):
            self._rebuild_order()
        elif len(batch) * 8 > len(order):
            order.extend(batch)
            heapq.heapify(order)
        else:
            push = heapq.heappush
            for entry in batch:
                push(order, entry)

    def _rebuild_order(self) -> None:
        """Sort one current entry per unassigned variable into a fresh run.

        The heap empties and every cursor mark drops to the start of
        the new run; an assigned variable gets its heap entry from the
        backtrack that unassigns it.
        """
        act = self._act
        litval = self._litval
        queued = self._queued
        run = []
        for v in range(1, self._nvars + 1):
            if litval[2 * v] == 0:
                queued[v] = 1
                run.append((-act[v], v))
            else:
                queued[v] = 0
        run.sort()
        self._run = run
        self._run_head = 0
        self._run_lim = [0] * len(self._trail_lim)
        self._order = []

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(
        self,
        assumptions: list[int] | None = None,
        learnt_cap: float | None = None,
    ) -> _Clause | bool | None:
        """Unit-propagate to a fixpoint; in decide mode, search on.

        Each dequeued literal first walks its binary implication list,
        then the long-clause watches.  A binary conflict materialises a
        fresh two-literal clause for :meth:`_analyze`.

        Plain mode (no ``assumptions``) returns the conflict clause, or
        ``None`` at the fixpoint.  Decide mode is :meth:`solve`'s search
        loop, entered at a conflict-free fixpoint: it opens the next
        decision level — the pending assumption, else the VSIDS pick —
        propagates, and repeats in this one frame until it returns the
        conflict clause, ``True`` for a complete assignment, or
        ``False`` for a falsified assumption.  ``learnt_cap`` is set
        only right after :meth:`solve` reduced the learnt database: the
        loop then also returns ``None`` at the first later fixpoint
        where the database is still at ``learnt_cap + len(trail)``,
        where the reduce is due again.
        """
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
            run = self._run
            run_len = len(run)
            head = self._run_head
            run_lim = self._run_lim
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
                    if len(trail) == nvars:
                        confl = True  # satisfying assignment
                        break
                    # The run's first live entry: unassigned, activity
                    # unchanged since the sort.  Skipped entries stay.
                    while head < run_len:
                        neg_act, var = run[head]
                        if litval[var * 2] == 0 and -neg_act == act[var]:
                            break
                        head += 1
                    # The heap's first live entry.
                    while order:
                        neg_act, var = order[0]
                        if -neg_act != act[var]:
                            pop(order)  # stale: its current entry is elsewhere
                        elif litval[var * 2]:
                            pop(order)
                            queued[var] = 0
                        else:
                            break
                    if order and (head == run_len or order[0] < run[head]):
                        var = pop(order)[1]
                        queued[var] = 0
                    else:
                        var = run[head][1]
                    lit = var * 2 + (0 if phase[var] else 1)
                    stats.decisions += 1
                trail_lim.append(len(trail))
                run_lim.append(head)
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
        if decide:
            self._run_head = head
        return confl

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        """Bump an *assigned* variable (conflict analysis bumps only
        variables of the conflict's clauses, all of them assigned)."""
        act = self._act
        act[var] += self._var_inc
        if act[var] > 1e100:
            inv = 1e-100
            for v in range(1, self._nvars + 1):
                act[v] *= inv
            self._var_inc *= inv
            self._rebuild_order()  # every entry is stale now
        else:
            # Its run or heap entry is stale now; the backtrack that
            # unassigns it pushes it onto the heap at the new activity.
            self._queued[var] = 0

    def _bump_clause(self, clause: _Clause) -> None:
        clause.act += self._cla_inc
        if clause.act > 1e20:
            inv = 1e-20
            for c in self._learnts:
                c.act *= inv
            self._cla_inc *= inv

    def _analyze(self, confl: _Clause) -> tuple[list[int], int, int]:
        """First-UIP analysis.

        Returns ``(learnt_lits, backtrack_level, lbd)`` where
        ``learnt_lits[0]`` is the asserting literal.
        """
        seen = self._seen
        level = self._level
        trail = self._trail
        cur_level = len(self._trail_lim)
        learnt: list[int] = [0]
        counter = 0
        p = -1
        index = len(trail) - 1
        cleanup: list[int] = []

        c: _Clause | int | None = confl
        while True:
            assert c is not None
            if c.__class__ is int:
                lits = (c,)  # binary reason: the implying literal
            else:
                if c.learnt:
                    self._bump_clause(c)
                lits = c.lits
            for q in lits:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    cleanup.append(v)
                    self._bump_var(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Select next literal to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p >> 1
            c = self._reason[v]
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
        learnt[0] = p ^ 1

        # Basic clause minimization: drop literals implied by the rest.
        for v in cleanup:
            seen[v] = 1
        seen[learnt[0] >> 1] = 0
        minimized = [learnt[0]]
        for q in learnt[1:]:
            reason = self._reason[q >> 1]
            if reason is None:
                minimized.append(q)
                continue
            for r in (reason,) if reason.__class__ is int else reason.lits:
                rv = r >> 1
                if rv != (q >> 1) and not seen[rv] and level[rv] > 0:
                    minimized.append(q)
                    break
        learnt = minimized
        for v in cleanup:
            seen[v] = 0

        # Backtrack level: second-highest decision level in the clause.
        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = level[learnt[1] >> 1]

        lbd = len({level[q >> 1] for q in learnt})
        return learnt, bt_level, lbd

    # ------------------------------------------------------------------
    # Learned-clause database reduction
    # ------------------------------------------------------------------
    def _locked(self, clause: _Clause) -> bool:
        """Whether ``clause`` is the reason of a current assignment
        (MiniSAT's ``locked()``: reasons outlive backtracking)."""
        first = clause.lits[0]
        return self._litval[first] == 1 and self._reason[first >> 1] is clause

    def _reduce_db(self) -> None:
        # Binary learnts have LBD <= 2, so they are always kept: the
        # implication lists never hold a reduced clause.
        learnts = self._learnts
        learnts.sort(key=lambda c: (c.lbd, -c.act))
        keep_count = len(learnts) // 2
        kept: list[_Clause] = []
        removed: list[_Clause] = []
        for i, c in enumerate(learnts):
            if c.lbd <= 2 or self._locked(c) or i < keep_count:
                kept.append(c)
            else:
                c.deleted = True
                removed.append(c)
        self.stats.removed += len(removed)
        self._unwatch(removed)
        self._learnts = kept

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(self, assumptions=(), conflict_budget: int | None = None) -> bool:
        """Search for a satisfying assignment.

        ``assumptions`` is an iterable of DIMACS literals that are
        forced for this call only.  ``conflict_budget`` optionally
        bounds the number of conflicts; exceeding it raises
        :class:`BudgetExhausted`.  A ``0`` assumption raises
        ``ValueError`` before any state changes.
        """
        assume_internal: list[int] = []
        for ext in assumptions:
            if ext == 0:
                raise ValueError("0 is not a valid DIMACS literal")
            assume_internal.append(2 * ext if ext > 0 else 1 - 2 * ext)
        self.stats.solve_calls += 1
        if not self._ok:
            return False
        self._cancel_until(0)  # leave any previous solution state
        if assume_internal:
            self._ensure_var(max(assume_internal) >> 1)

        max_learnts = max(1000.0, len(self._clauses) * 0.35)
        conflicts_this_call = 0
        restart_idx = 0
        restart_limit = luby(restart_idx) * _LUBY_UNIT
        conflicts_since_restart = 0

        propagate = self._propagate
        if propagate() is not None:
            self._ok = False
            return False

        while True:
            # A conflict-free fixpoint: the start, a conflict's settled
            # re-propagation, or one where the reduce is due again.
            # Only a conflict moves conflicts_since_restart, so checking
            # here is checking before every decision.
            if conflicts_since_restart >= restart_limit:
                self.stats.restarts += 1
                restart_idx += 1
                restart_limit = luby(restart_idx) * _LUBY_UNIT
                conflicts_since_restart = 0
                self._cancel_until(0)
            learnt_cap = None
            if len(self._learnts) >= max_learnts + len(self._trail):
                self._reduce_db()
                max_learnts *= 1.1
                # Between conflicts the trail only grows, so the reduce
                # can be due again only while the database stays over
                # this new cap; the search loop stops there if so.
                learnt_cap = max_learnts

            confl = propagate(assume_internal, learnt_cap)
            if confl is True:
                # Satisfying assignment found.  The trail is kept so
                # model_value() can read it; the next solve() or
                # add_clause() backtracks to the root.
                return True
            if confl is False:
                self._cancel_until(0)
                return False
            while confl is not None:
                self.stats.conflicts += 1
                conflicts_this_call += 1
                conflicts_since_restart += 1
                if conflict_budget is not None and conflicts_this_call > conflict_budget:
                    self._cancel_until(0)
                    self.stats.budget_aborts += 1
                    raise BudgetExhausted(conflicts_this_call)
                level = len(self._trail_lim)
                if level == 0:
                    self._ok = False
                    return False
                if level <= len(assume_internal):
                    # Conflict is forced by the assumptions themselves.
                    self._cancel_until(0)
                    return False
                learnt, bt_level, lbd = self._analyze(confl)
                bt_level = max(bt_level, self._assumption_floor(assume_internal))
                self._cancel_until(bt_level)
                if len(learnt) == 1:
                    # A unit learnt lands on the root trail (no clause
                    # object); export_learnts reads it back from there.
                    self._cancel_until(0)
                    if self._litval[learnt[0]] == -1:
                        self._ok = False
                        return False
                    if self._litval[learnt[0]] == 0:
                        self._enqueue(learnt[0], None)
                        self.stats.learned += 1
                else:
                    clause = _Clause(learnt, learnt=True)
                    clause.lbd = lbd
                    clause.act = self._cla_inc
                    self._learnts.append(clause)
                    self._attach(clause)
                    self.stats.learned += 1
                    # A binary learnt's reason is its other (false) literal.
                    self._enqueue(
                        learnt[0], learnt[1] if len(learnt) == 2 else clause
                    )
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
                if (
                    self._var_decay_factor < 0.95
                    and self.stats.conflicts % _DECAY_RAMP_INTERVAL == 0
                ):
                    self._var_decay_factor = min(
                        0.95, self._var_decay_factor + 0.01
                    )
                    self._var_decay = 1.0 / self._var_decay_factor
                confl = propagate()

    def _assumption_floor(self, assume_internal: list[int]) -> int:
        """Never backtrack past levels still holding assumptions."""
        return min(len(assume_internal), len(self._trail_lim) - 1)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, var: int) -> bool | None:
        """Value of ``var`` in the current satisfying assignment.

        Only meaningful directly after ``solve()`` returned True (the
        assignment survives until the next ``solve``/``add_clause``).
        """
        if var < 1 or var > self._nvars:
            return None
        value = self._litval[var * 2]
        if value == 0:
            return None
        return value == 1

    def model(self) -> list[int]:
        """Current model as a list of DIMACS literals."""
        return [
            v if self._litval[v * 2] == 1 else -v
            for v in range(1, self._nvars + 1)
        ]


class BudgetExhausted(Exception):
    """Raised when ``solve`` exceeds its conflict budget."""

    def __init__(self, conflicts: int):
        super().__init__(f"conflict budget exhausted after {conflicts} conflicts")
        self.conflicts = conflicts
