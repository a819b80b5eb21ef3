"""The BDD node manager: hash-consed nodes, ITE, quantification, counting.

Standard Bryant-style implementation with complement edges omitted for
clarity.  Nodes are integers: 0 and 1 are the terminals; every other
node is an index into the ``(var, low, high)`` triple tables.  The
unique table guarantees canonicity, so equality of functions is
pointer equality, and the operation cache keeps ITE polynomial.
"""

from __future__ import annotations

from math import inf

FALSE = 0
TRUE = 1


class BddManager:
    """Owns every node; functions are node handles tied to a manager."""

    def __init__(self, max_nodes: int = 2_000_000):
        # Parallel triple tables; entries 0/1 are placeholders.
        self._var = [-1, -1]
        self._low = [0, 0]
        self._high = [0, 0]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._num_vars = 0
        self.max_nodes = max_nodes

    # ------------------------------------------------------------------
    # Variables and raw nodes
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._num_vars

    def new_var(self) -> int:
        """Declare the next variable in the global order; returns its
        *level* (0-based), not a node."""
        level = self._num_vars
        self._num_vars += 1
        return level

    def var(self, level: int) -> int:
        """The function of a single variable."""
        self._require_level(level)
        return self._node(level, FALSE, TRUE)

    def nvar(self, level: int) -> int:
        """The negation of a single variable."""
        self._require_level(level)
        return self._node(level, TRUE, FALSE)

    def _require_level(self, level: int) -> None:
        if not (0 <= level < self._num_vars):
            raise ValueError(f"variable level {level} not declared")

    def _node(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if len(self._var) >= self.max_nodes:
            raise MemoryError(
                f"BDD node limit ({self.max_nodes}) exceeded; the variable "
                "order is bad for this function or the circuit is too wide"
            )
        index = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = index
        return index

    def level_of(self, node: int) -> float:
        """Variable level of a node (terminals sort last)."""
        return inf if node <= TRUE else self._var[node]

    # ------------------------------------------------------------------
    # Core operation: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """``f ? g : h`` — every Boolean connective reduces to this."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached

        top = min(self.level_of(f), self.level_of(g), self.level_of(h))

        def cofactor(node: int, branch: bool) -> int:
            if node <= TRUE or self._var[node] != top:
                return node
            return self._high[node] if branch else self._low[node]

        high = self.ite(cofactor(f, True), cofactor(g, True), cofactor(h, True))
        low = self.ite(cofactor(f, False), cofactor(g, False), cofactor(h, False))
        result = self._node(int(top), low, high)
        self._ite_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def apply_not(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    def apply_xnor(self, f: int, g: int) -> int:
        return self.ite(f, g, self.apply_not(g))

    def apply_nand(self, f: int, g: int) -> int:
        return self.apply_not(self.apply_and(f, g))

    def apply_nor(self, f: int, g: int) -> int:
        return self.apply_not(self.apply_or(f, g))

    def apply_mux(self, sel: int, d1: int, d0: int) -> int:
        return self.ite(sel, d1, d0)

    # ------------------------------------------------------------------
    # Quantification and restriction
    # ------------------------------------------------------------------
    def restrict(self, f: int, level: int, value: bool) -> int:
        """Cofactor of ``f`` with variable ``level`` fixed."""
        self._require_level(level)
        if f <= TRUE:
            return f
        var = self._var[f]
        if var > level:
            return f
        if var == level:
            return self._high[f] if value else self._low[f]
        low = self.restrict(self._low[f], level, value)
        high = self.restrict(self._high[f], level, value)
        return self._node(var, low, high)

    def exists(self, f: int, levels) -> int:
        """Existentially quantify a set of variable levels out of ``f``."""
        remaining = sorted(set(levels))
        result = f
        for level in remaining:
            result = self.apply_or(
                self.restrict(result, level, False),
                self.restrict(result, level, True),
            )
        return result

    def forall(self, f: int, levels) -> int:
        """Universally quantify a set of variable levels out of ``f``."""
        result = f
        for level in sorted(set(levels)):
            result = self.apply_and(
                self.restrict(result, level, False),
                self.restrict(result, level, True),
            )
        return result

    # ------------------------------------------------------------------
    # Evaluation and counting
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment: dict[int, bool]) -> bool:
        """Evaluate under a full (or sufficient) level -> bool mapping."""
        node = f
        while node > TRUE:
            node = (
                self._high[node]
                if assignment.get(self._var[node], False)
                else self._low[node]
            )
        return node == TRUE

    def count_models(self, f: int, over_levels) -> int:
        """Number of assignments to ``over_levels`` satisfying ``f``.

        ``f`` must not depend on variables outside ``over_levels``
        (support outside the set raises).
        """
        levels = sorted(set(over_levels))
        position = {lvl: i for i, lvl in enumerate(levels)}
        n = len(levels)

        stray = self.support(f) - set(levels)
        if stray:
            raise ValueError(f"function depends on unquantified levels {stray}")

        # Memoized on node: the count over the suffix of the ordering
        # starting at the node's own level; gaps (skipped variables)
        # contribute a factor of two each at the call site.
        memo: dict[int, int] = {}

        def models_from(node: int, pos: int) -> int:
            """Satisfying suffixes of levels[pos:] for subfunction node."""
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1 << (n - pos)
            node_pos = position[self._var[node]]
            base = memo.get(node)
            if base is None:
                base = models_from(
                    self._low[node], node_pos + 1
                ) + models_from(self._high[node], node_pos + 1)
                memo[node] = base
            # Variables skipped between pos and node_pos are free.
            return base << (node_pos - pos)

        return models_from(f, 0)

    def support(self, f: int) -> set[int]:
        """The set of variable levels ``f`` depends on."""
        seen: set[int] = set()
        result: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            result.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return result

    def size(self, f: int) -> int:
        """Node count of the sub-DAG rooted at ``f``."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)
