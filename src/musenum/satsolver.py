"""Small incremental CDCL propositional solver.

Supports adding clauses between solves, solving under assumptions, conflict
clause learning (first-UIP) with backjumping, and a fixed default branching
polarity. There are no restarts and learnt clauses are never discarded; the
intended workload is many related solves over formulas with at most a few
hundred variables.

The trail is kept between calls. Assumption i is decided at level i + 1, and
a solve keeps the levels of the longest common prefix of its assumption list
and the previous call's, so those assumptions are not propagated again (as in
Hickey & Bacchus, "Speeding Up Assumption-Based SAT", SAT 2019). A SAT answer
backtracks only to the last assumption level and a failed assumption leaves
the trail as it is. Clauses added above level 0 keep the trail when two of
their literals are unfalsified.

Model invariant: a SAT answer's model is the first model of the clauses and
the assumptions in branching order, which tries variables from the lowest
index up and prefers `default_phase`. Learnt clauses, the kept trail and the
order of the assumptions never change which model that is, so callers may
rely on the model being a function of the clause set and the assumption set.

Variables are the integers 1..num_vars, literals are signed integers, and
clauses are lists of literals.
"""

from __future__ import annotations


class SatSolver:
    def __init__(self, num_vars: int = 0, default_phase: bool = False):
        self.num_vars = 0
        self.default_phase = default_phase
        self.ok = True  # becomes False once the formula is unsat without assumptions
        self._assign: list[int] = [0]  # per variable: 0 free, 1 true, -1 false
        self._level: list[int] = [0]
        self._reason: list = [None]
        self._watches: dict[int, list] = {}
        self._trail: list[int] = []
        self._lim: list[int] = []  # trail length at the start of each decision level
        self._qhead = 0
        self._assumed: list[int] = []  # assumption i was decided at level i + 1
        self._model_mask: int | None = None
        for _ in range(num_vars):
            self.new_var()

    def new_var(self) -> int:
        self.num_vars += 1
        v = self.num_vars
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._watches[v] = []
        self._watches[-v] = []
        return v

    def value(self, lit: int) -> int:
        """Value of a literal on the kept trail: 1 true, -1 false, 0 unassigned."""
        v = self._assign[lit if lit > 0 else -lit]
        return v if lit > 0 else -v

    @property
    def model_mask(self) -> int:
        """Bitmask of true variables (bit v-1 for variable v) from the last SAT solve."""
        if self._model_mask is None:
            raise RuntimeError("no model available; last solve was unsat or never ran")
        return self._model_mask

    def add_clause(self, lits) -> None:
        """Add a clause. Tautologies are dropped; level-0 false literals are stripped.

        A unit clause is asserted at level 0. Otherwise the clause is watched on
        two literals, and above level 0 the trail is kept if two literals are
        unfalsified; if not, it is backtracked just far enough to free two.
        """
        if not self.ok:
            return
        level = self._level
        seen = set()
        out = []
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            val = self.value(lit)
            if val != 0 and level[abs(lit)] == 0:
                if val == 1:
                    return  # satisfied at level 0
                continue  # permanently false literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self._backtrack(0)
            self._enqueue(out[0], None)
            if self._propagate() is not None:
                self.ok = False
            return
        if self._lim:
            self._free_watches(out)
        self._watches[out[0]].append(out)
        self._watches[out[1]].append(out)

    def _free_watches(self, clause) -> None:
        """Move the two literals that stay unfalsified longest to the front.

        Unfalsified literals rank above false ones, which rank by level. If the
        second literal is false, backtrack to just below its level, which frees
        both front literals.
        """
        level = self._level
        free = len(self._lim) + 1
        ranks = [level[abs(lit)] if self.value(lit) == -1 else free for lit in clause]
        for pos in (0, 1):
            best = max(range(pos, len(clause)), key=ranks.__getitem__)
            clause[pos], clause[best] = clause[best], clause[pos]
            ranks[pos], ranks[best] = ranks[best], ranks[pos]
        if ranks[1] < free:
            self._backtrack(ranks[1] - 1)

    def solve(self, assumptions=()) -> bool:
        """Decide satisfiability under the given assumption literals.

        The decision levels shared with the previous call's assumption prefix
        are kept; see the module docstring for the model this returns.
        """
        self._model_mask = None
        if not self.ok:
            return False
        assume = list(assumptions)
        for lit in assume:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"assumption literal {lit} out of range")
        kept = 0
        common = min(len(self._lim), len(assume))
        previous = self._assumed
        while kept < common and previous[kept] == assume[kept]:
            kept += 1
        self._backtrack(kept)
        self._assumed = assume
        assign = self._assign
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self._lim:
                    self.ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self._watches[learnt[0]].append(learnt)
                    self._watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                continue
            level = len(self._lim)
            if level < len(assume):
                lit = assume[level]
                val = self.value(lit)
                if val == 1:
                    self._lim.append(len(self._trail))  # placeholder level
                    continue
                if val == -1:
                    return False
                self._lim.append(len(self._trail))
                self._enqueue(lit, None)
                continue
            branch_var = 0
            for v in range(1, self.num_vars + 1):
                if assign[v] == 0:
                    branch_var = v
                    break
            if branch_var == 0:
                self._save_model()
                self._backtrack(len(assume))
                return True
            self._lim.append(len(self._trail))
            self._enqueue(branch_var if self.default_phase else -branch_var, None)

    def _enqueue(self, lit: int, reason) -> None:
        v = lit if lit > 0 else -lit
        self._assign[v] = 1 if lit > 0 else -1
        self._level[v] = len(self._lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        if len(self._lim) <= level:
            return
        head = self._lim[level]
        assign = self._assign
        for lit in self._trail[head:]:
            assign[lit if lit > 0 else -lit] = 0
        del self._trail[head:]
        del self._lim[level:]
        self._qhead = head

    def _propagate(self):
        """Two-watched-literal unit propagation; returns a conflict clause or None."""
        assign = self._assign
        watches = self._watches
        trail = self._trail
        while self._qhead < len(trail):
            prop = trail[self._qhead]
            self._qhead += 1
            false_lit = -prop
            ws = watches[false_lit]
            i = j = 0
            count = len(ws)
            while i < count:
                clause = ws[i]
                i += 1
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                first_val = assign[first] if first > 0 else -assign[-first]
                if first_val == 1:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(clause)
                        break
                else:
                    ws[j] = clause
                    j += 1
                    if first_val == -1:  # conflict
                        while i < count:
                            ws[j] = ws[i]
                            j += 1
                            i += 1
                        del ws[j:]
                        self._qhead = len(trail)
                        return clause
                    self._enqueue(first, clause)
            del ws[j:]
        return None

    def _analyze(self, conflict):
        """First-UIP conflict analysis; returns (learnt clause, backjump level)."""
        level = self._level
        reason = self._reason
        trail = self._trail
        current = len(self._lim)
        seen = bytearray(self.num_vars + 1)
        learnt = [0]
        counter = 0
        pivot = 0
        idx = len(trail) - 1
        while True:
            # reason clauses keep their implied literal at position 0; skip it
            for lit in conflict[1 if pivot else 0:]:
                v = lit if lit > 0 else -lit
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    if level[v] >= current:
                        counter += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(trail[idx])]:
                idx -= 1
            pivot = trail[idx]
            idx -= 1
            pv = pivot if pivot > 0 else -pivot
            seen[pv] = 0
            counter -= 1
            if counter == 0:
                break
            conflict = reason[pv]
        learnt[0] = -pivot
        if len(learnt) == 1:
            return learnt, 0
        deepest = 1
        for k in range(2, len(learnt)):
            if level[abs(learnt[k])] > level[abs(learnt[deepest])]:
                deepest = k
        learnt[1], learnt[deepest] = learnt[deepest], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _save_model(self) -> None:
        mask = 0
        assign = self._assign
        for v in range(1, self.num_vars + 1):
            if assign[v] == 1:
                mask |= 1 << (v - 1)
        self._model_mask = mask
