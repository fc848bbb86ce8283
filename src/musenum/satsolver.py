"""Small incremental CDCL propositional solver.

Supports adding clauses between solves, solving under assumptions,
conflict clause learning (first-UIP) with backjumping, and a fixed default
branching polarity. Clauses are never removed: there are no restarts and
learnt clauses are never discarded; the intended workload is many related
solves over formulas with at most a few hundred variables.

The trail is kept between calls. Assumption i is decided at level i + 1, and
a solve keeps the levels of the longest common prefix of its assumption list
and the previous call's, so those assumptions are not propagated again (as in
Hickey & Bacchus, "Speeding Up Assumption-Based SAT", SAT 2019). A SAT answer
backtracks only to the last assumption level and a failed assumption leaves
the trail as it is. Clauses added above level 0 keep the trail when two of
their literals are unfalsified. The assumption list itself is reused too: it
starts with the selectors, so the previous call's list holds up to the first
selector whose bit changed, the lowest set bit of `selected ^ previous`, and
only the rest is built anew. An assumption whose negation no clause watches
is decided without a propagation pass, since that pass would find nothing;
a selector assumed false is one, as no clause holds a selector positively.

Failed assumptions: after a solve answers UNSAT, `failed_assumptions()`
names assumptions whose conjunction with the clauses is already UNSAT, found
by walking the kept trail back from the falsified assumption along reason
clauses (MiniSat's analyzeFinal). It is computed on demand, so callers that
do not ask pay nothing, and is valid until the next `solve` or `add_clause`.
Which assumptions the walk meets depends on the derivation, that is on the
watch order and the learnt clauses, not only on the assumptions: a change to
the search may move these cores, though each stays UNSAT.

Selectors and guards: the variables from `first_selector` on may be declared
selectors. They occur in clauses only negated, and every solve assumes each
of them first, in variable order, as `selected` says, so level i + 1 decides
selector i and the selectors assumed true up to level L are the low L bits of
`selected`. Learnt clauses over many selectors are factored as in Lagniez &
Biere, "Factoring Out Assumptions to Speed Up MUS Extraction" (SAT 2013):
when at least GUARD_MIN negated selectors lie below the conflict level, they
leave the learnt clause's literal list for an integer mask, its guard, except
the one assumed last, which stays a literal so that the clause still wakes up
when it is assumed. The clause still means its literals or the negation of any
guard selector. When the watch scan of a guarded clause finds no other
literal to watch, the clause is unit or conflicting only if every guard
selector is assumed true at the current level. If not, one guard selector
that is not assumed true moves back into the literal list as the new watch
("parking"), preferably one this solve assumes false, which satisfies the
clause. Conflict analysis and the failed-assumption walk take in the guards
of the clauses they pass. Guards live in a dict keyed by the clause's id, so
that clauses stay exact lists, which CPython indexes fastest.

Model invariant: a SAT answer's model is the first model of the clauses and
the assumptions in branching order, which tries variables from the lowest
index up and prefers `default_phase`. Learnt clauses, the kept trail and the
order of the assumptions never change which model that is, so callers may
rely on the model being a function of the clause set and the assumption set.
A guard is another way to store a learnt clause: the clause is still implied
by the others, and it propagates only when all of its literals are false, so
it prunes no model either, and guards add no variable. Likewise, adding a
clause implied by the others leaves the set of models, and with it every
later model, unchanged.

Variables are the integers 1..num_vars, literals are signed integers, and
clauses are lists of literals. Values are stored per literal in one list
laid out as [0, v1..vn, -vn..-v1], so Python's negative indexing finds a
negative literal's entry and `_val[lit]` is the literal's value with no sign
test; assigning a variable writes both of its literals. The watch lists are
laid out the same way, so `_watches[lit]` holds the clauses watching lit.
"""

from __future__ import annotations

# A learnt clause keeps its negated selectors in a guard only when it has at
# least this many. A guard saves scanning its false selectors, but each time
# its clause runs out of literals to watch it costs a lookup, a mask test and
# often parking; with fewer selectors than this, that cost was the larger.
GUARD_MIN = 16


class SatSolver:
    def __init__(self, num_vars: int = 0, default_phase: bool = False, first_selector: int | None = None):
        self.num_vars = num_vars
        self.default_phase = default_phase
        # variables from here on are selectors; the guard bit of variable v is v - _selector
        self._selector = num_vars + 1 if first_selector is None else first_selector
        if not 1 <= self._selector <= num_vars + 1:
            raise ValueError(f"first selector {first_selector} outside 1..{num_vars + 1}")
        self._selected = 0  # the selectors the last solve assumed true, as a guard mask
        self._guards: dict[int, int] = {}  # id of a learnt clause -> its guard, if not 0
        self.ok = True  # becomes False once the formula is unsat without assumptions
        # per literal: 1 true, -1 false, 0 unassigned; layout [0, v1..vn, -vn..-v1]
        self._val: list[int] = [0] * (2 * num_vars + 1)
        self._level: list[int] = [0] * (num_vars + 1)
        self._reason: list = [None] * (num_vars + 1)
        self._watches: list[list] = [[] for _ in range(2 * num_vars + 1)]  # laid out like _val
        self._trail: list[int] = []
        self._lim: list[int] = []  # trail length at the start of each decision level
        self._free = 1  # every variable below this one is assigned; branching scans from it
        self._qhead = 0
        self._assumed: list[int] = []  # assumption i was decided at level i + 1
        self._model_mask: int | None = None
        self._failed: int | None = None  # after UNSAT: the false assumption, or 0

    def value(self, lit: int) -> int:
        """Value of a literal on the kept trail: 1 true, -1 false, 0 unassigned."""
        return self._val[lit]

    @property
    def model_mask(self) -> int:
        """Bitmask of true variables (bit v-1 for variable v) from the last SAT solve."""
        if self._model_mask is None:
            raise RuntimeError("no model available; last solve was unsat or never ran")
        return self._model_mask

    def add_clause(self, lits) -> None:
        """Add a clause. Tautologies are dropped; level-0 false literals are stripped.

        A unit clause is asserted at level 0, and an empty one makes the
        solver unsat. Otherwise the clause is watched on two literals, and
        above level 0 the trail is kept if two literals are unfalsified; if
        not, it is backtracked just far enough to free two.
        """
        self._failed = None
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

    def solve(self, assumptions=(), selected: int = 0) -> bool:
        """Decide satisfiability under the given assumption literals.

        A solver with selectors first assumes each selector, in variable
        order: first_selector + i is assumed true if bit i of `selected` is
        set and false if not. The assumption literals come after them. The
        decision levels shared with the previous call's assumption prefix
        are kept; see the module docstring for the model this returns.
        """
        self._model_mask = None
        self._failed = 0
        if not self.ok:
            return False
        n = self.num_vars
        base = self._selector
        count = n + 1 - base  # selectors
        selected &= (1 << count) - 1
        assumptions = list(assumptions)
        if assumptions and (0 in assumptions or max(assumptions) > n or min(assumptions) < -n):
            bad = next(lit for lit in assumptions if lit == 0 or abs(lit) > n)
            raise ValueError(f"assumption literal {bad} out of range")
        # the previous list holds its selectors first, so it stays valid up to
        # the first selector whose bit changed
        previous = self._assumed
        changed = selected ^ self._selected
        same = min(len(previous), (changed & -changed).bit_length() - 1 if changed else count)
        assume = previous[:same]
        assume += [base + i if selected >> i & 1 else -(base + i) for i in range(same, count)]
        assume += assumptions
        limit = min(len(self._lim), len(assume))
        kept = min(same, limit)
        while kept < limit and previous[kept] == assume[kept]:
            kept += 1
        self._backtrack(kept)
        self._assumed = assume
        self._selected = selected
        val = self._val
        watches = self._watches
        lim = self._lim
        trail = self._trail
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not lim:
                    self.ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    watches[learnt[0]].append(learnt)
                    watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                continue
            # decide assumptions up to the first one whose negation a clause watches
            level = len(lim)
            while level < len(assume):
                lit = assume[level]
                if val[lit] == -1:
                    self._failed = lit
                    return False
                lim.append(len(trail))  # a placeholder level if lit is already true
                level += 1
                if val[lit] == 0:
                    self._enqueue(lit, None)
                    if watches[-lit]:
                        break
                    self._qhead += 1  # nothing to propagate
            else:
                try:
                    branch_var = self._free = val.index(0, self._free, n + 1)
                except ValueError:  # no variable is free
                    self._failed = None
                    self._save_model()
                    self._backtrack(len(assume))
                    return True
                lim.append(len(trail))
                self._enqueue(branch_var if self.default_phase else -branch_var, None)

    def failed_assumptions(self) -> list[int]:
        """A subset of the last solve's assumptions that the clauses refute on their own.

        Valid after an UNSAT answer until the next `solve` or `add_clause`. The
        list holds the assumption found false and every assumption its
        negation was derived from, including the selectors in the guards of
        the clauses it was derived by; it is empty when the clauses are UNSAT
        without assumptions.
        """
        failed = self._failed
        if failed is None:
            raise RuntimeError("no failed assumptions; last solve was sat or never ran")
        if not failed:
            return []
        out = [failed]
        level = self._level
        if level[abs(failed)] == 0:
            return out
        reason = self._reason
        trail = self._trail
        guards = self._guards
        guard = 0
        seen = bytearray(self.num_vars + 1)
        seen[abs(failed)] = 1
        for idx in range(len(trail) - 1, self._lim[0] - 1, -1):
            lit = trail[idx]
            v = lit if lit > 0 else -lit
            if not seen[v]:
                continue
            clause = reason[v]
            if clause is None:  # every decision so far is an assumption
                out.append(lit)
                continue
            for other in clause[1:]:
                w = other if other > 0 else -other
                if level[w] > 0:
                    seen[w] = 1
            if guards:
                guard |= guards.get(id(clause), 0)
        if guard:  # the selectors met only in guards
            base = self._selector
            out += [base + i for i in range(guard.bit_length()) if guard >> i & 1 and not seen[base + i]]
        return out

    def _enqueue(self, lit: int, reason) -> None:
        self._val[lit] = 1
        self._val[-lit] = -1
        v = lit if lit > 0 else -lit
        self._level[v] = len(self._lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        if len(self._lim) <= level:
            return
        head = self._lim[level]
        val = self._val
        for lit in self._trail[head:]:
            val[lit] = 0
            val[-lit] = 0
        self._free = 1  # cheaper than finding the lowest variable undone
        del self._trail[head:]
        del self._lim[level:]
        self._qhead = head

    def _propagate(self):
        """Two-watched-literal unit propagation; returns a conflict clause or None.

        A guarded clause with no literal left to watch is unit or conflicting
        only if all of its guard is assumed true; if not, it parks a selector.
        """
        val = self._val
        level = self._level
        reason = self._reason
        watches = self._watches
        trail = self._trail
        guards = self._guards
        current = len(self._lim)
        assumed = -1  # the selectors assumed true at this level, once a guard needs them
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            if not ws:
                continue
            j = 0  # ws[:j] holds the clauses visited so far that keep watching false_lit
            visiting = iter(ws)
            for clause in visiting:
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if val[first] == 1:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if val[other] != -1:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(clause)
                        break
                else:
                    guard = guards.get(id(clause), 0) if guards else 0
                    if guard:
                        if assumed < 0:  # level i decided selector i - 1
                            assumed = self._selected & ((1 << current) - 1)
                        missing = guard & ~assumed
                        if missing:
                            # park a selector that is not assumed true as the new watch,
                            # preferring one this solve assumes false
                            top = (missing & ~self._selected or missing).bit_length() - 1
                            sel = -(self._selector + top)
                            clause[1] = sel
                            clause.append(false_lit)
                            watches[sel].append(clause)
                            guard ^= 1 << top
                            if guard:
                                guards[id(clause)] = guard
                            else:
                                del guards[id(clause)]
                            continue
                    ws[j] = clause
                    j += 1
                    if val[first] == -1:  # conflict; keep the clauses not visited
                        for rest in visiting:
                            ws[j] = rest
                            j += 1
                        del ws[j:]
                        self._qhead = len(trail)
                        return clause
                    # enqueue first with clause as its reason
                    val[first] = 1
                    val[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = current
                    reason[v] = clause
                    trail.append(first)
            del ws[j:]
        self._qhead = qhead
        return None

    def _analyze(self, conflict):
        """First-UIP conflict analysis; returns (learnt clause, backjump level).

        When at least GUARD_MIN negated selectors lie below the conflict
        level, they go into the learnt clause's guard, all but the one
        assumed last, which stays a literal.
        """
        level = self._level
        reason = self._reason
        trail = self._trail
        guards = self._guards
        base = self._selector
        current = len(self._lim)
        seen = bytearray(self.num_vars + 1)
        learnt = [0]
        guard = listed = 0  # selectors below this level: all of them, those among the literals
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
                        if v >= base:
                            listed |= 1 << (v - base)
            if guards:
                walked = guards.get(id(conflict), 0)
                if walked >> (current - 1) & 1:  # the selector decided at this level
                    walked ^= 1 << (current - 1)
                    if not seen[base + current - 1]:
                        seen[base + current - 1] = 1
                        counter += 1
                guard |= walked
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
        guard |= listed
        if guard.bit_count() >= GUARD_MIN:
            # the selector assumed last stays a literal, so the clause still
            # fires when it is assumed; the others leave the literal list
            top = guard.bit_length() - 1
            learnt[1:] = [lit for lit in learnt[1:] if lit > -base]
            learnt.append(-(base + top))
            guards[id(learnt)] = guard ^ 1 << top
        elif guard != listed:  # add the selectors the walked clauses held only in their guards
            guard &= ~listed
            learnt += [-(base + i) for i in range(guard.bit_length()) if guard >> i & 1]
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
        val = self._val
        for v in range(1, self.num_vars + 1):
            if val[v] == 1:
                mask |= 1 << (v - 1)
        self._model_mask = mask
