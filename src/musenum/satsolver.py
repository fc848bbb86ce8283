"""Small incremental CDCL propositional solver.

Supports adding clauses between solves, solving under assumptions,
conflict clause learning (first-UIP) with backjumping, and branching on the
lowest free variable, false first. Clauses are never removed: there are no
restarts and learnt clauses are never discarded; the intended workload is
many related solves over formulas with at most a few hundred variables.

The trail is kept between calls: every answer leaves it as it is, and a solve
backtracks first only when its assumptions, in the order it decides them,
differ from the previous call's, to the longest common prefix of the two (as
in Hickey & Bacchus, "Speeding Up Assumption-Based SAT", SAT 2019).
Assumption i is decided at level i + 1. Clauses added above level 0 keep the
trail when two of their literals are unfalsified. A solve takes its
assumptions as one mask, bit v - 1 for variable v, and orders them itself,
so that the orders of consecutive calls share a long prefix. The selectors
come first, in variable order, each assumed true or false as its bit says,
so the previous call's order holds up to the first selector whose bit
changed, and only the rest is built anew. Every other set bit assumes its
variable true: those of the previous call keep their old order while their
bits stay set, and the rest follow in ascending order. This pays off for the
map of subsets: a remus child frame restricts it to a subset of its parent's
p, so the child assumes every constraint its parent leaves out and more. The
parent's order stays the prefix on the descent, the child's extra
assumptions follow it, and on the return only those are dropped. An
assumption whose negation no clause watches is decided without a
propagation pass, since that pass would find nothing; a selector assumed
false is one, as no clause holds a selector positively.

Failed selectors: after a solve answers UNSAT, `failed_selectors()` names
selectors that, assumed true together with the plain assumptions, already
make the clauses UNSAT, as a mask with bit i for selector i. It is found by
walking the kept trail back from the falsified assumption along reason
clauses (MiniSat's analyzeFinal), and the guards of the clauses it passes
are OR-ed in as they are; plain assumptions the walk meets are not named.
It is computed on demand, so callers that do not ask pay nothing, and is
valid until the next `solve` or `add_clause`. Which selectors the walk meets
depends on the derivation, that is on the watch order and the learnt
clauses, not only on the assumptions: a change to the search may move these
cores, though each stays UNSAT.

Selectors and guards: a solver made with `SatSolver(variables, selectors)`
holds `selectors` more variables after its own, variables + 1 up to
variables + selectors. They occur in clauses only negated, and every solve
assumes each of them first, in variable order, as its bit says, so level
i + 1 decides selector i and the selectors assumed true up to level L are the
low L selector bits. Learnt clauses over many selectors are factored as
in Lagniez & Biere, "Factoring Out Assumptions to Speed Up MUS Extraction"
(SAT 2013), by one rule: a learnt clause takes a guard, an integer mask, when
it has at least GUARD_MIN negated selectors below the conflict level, or when
a guard that conflict analysis passed brought one that its literals lack. All
its selectors but the one assumed last, which stays a literal so that the
clause still wakes up when it is assumed, leave the literal list for the
guard; an empty guard is never stored. The clause still means its literals or
the negation of any guard selector. When the watch scan of a guarded clause
finds no other literal to watch, the clause is unit or conflicting only if
every guard selector is assumed true at the current level. If not, one
guard selector that is not assumed true moves back into the literal list as
the new watch ("parking"), preferably one this solve assumes false, which
satisfies the clause. So every guard lies below a selector literal of its
own clause, and a clause that fires at level L has its whole guard decided
below L; a selector implied false falsifies no literal, so its reason is
never passed. Conflict analysis and the failed-selector walk OR in the
guards of the clauses they pass as they are. A clause keeps its guard in its
own slot 0 (0 for none), so reading it costs one index into a list in hand.

Model invariant: a SAT answer's model is the first model of the clauses and
the assumptions in branching order, which tries variables from the lowest
index up and tries false before true. Learnt clauses, the kept trail and
the order of the assumptions never change which model that is, so callers
may rely on the model being a function of the clauses and the assumption mask.
A guard is another way to store a learnt clause: the clause is still implied
by the others, and it propagates only when all of its literals are false, so
it prunes no model either, and guards add no variable. Likewise, adding a
clause implied by the others leaves the set of models, and with it every
later model, unchanged. `model_mask` holds the model's variables below the
first selector only: a caller that assumes the selectors knows their values.

Variables are the integers 1..num_vars (num_vars = variables + selectors).
The methods take literals as signed integers, but inside, as in MiniSat, a
literal is a code: v is 2v and -v is 2v + 1, so a literal's negation is
`code ^ 1` and its variable `code >> 1`. Values are stored per code, 1 true,
-1 false, 0 unassigned, so `_val[code]` is the literal's value with no sign
test, and `_watches[code]` holds the clauses watching it. Every index is
non-negative because CPython (3.11 on) specializes list indexing only for
those: a negative index takes the generic path, about twice as slow per read
in a plain loop on CPython 3.11.7. A clause is a list [guard, watch, watch,
rest...]: slot 0 holds its guard, slots 1 and 2 its watched literals, and a
reason clause keeps its implied literal at slot 1.
"""

from __future__ import annotations

from .core import set_bits

# A learnt clause keeps its selectors in a guard when it has this many, or a
# guard it took in brings one. A guard saves scanning its false selectors, but
# each time its clause runs out of literals to watch it costs a mask test and
# often parking; with fewer selectors than this, that cost was larger.
GUARD_MIN = 16


class SatSolver:
    def __init__(self, variables: int = 0, selectors: int = 0):
        self.num_vars = num_vars = variables + selectors
        # variables from here on are selectors; the guard bit of variable v is v - _selector
        self._selector = variables + 1
        self._selected = 0  # the selectors the last solve assumed true, as a guard mask
        self.ok = True  # becomes False once the formula is unsat without assumptions
        self._val: list[int] = [0] * (2 * num_vars + 2)  # per literal code: 1 true, -1 false, 0 unassigned
        self._level: list[int] = [0] * (num_vars + 1)
        self._reason: list = [None] * (num_vars + 1)
        self._watches: list[list] = [[] for _ in range(2 * num_vars + 2)]  # per literal code
        self._trail: list[int] = []
        self._lim: list[int] = []  # trail length at the start of each decision level
        self._free = 2  # every code below this one is assigned; branching scans from it
        self._qhead = 0
        self._assumed: list[int] = []  # assumption i was decided at level i + 1
        self._model_mask: int | None = None
        self._failed: int | None = None  # after UNSAT: the false assumption, or 0

    @property
    def model_mask(self) -> int:
        """Bitmask of the true non-selector variables (bit v-1 for variable v) from the last SAT solve."""
        if self._model_mask is None:
            raise RuntimeError("no model available; last solve was unsat or never ran")
        return self._model_mask

    def add_clause(self, lits) -> None:
        """Add a clause. Tautologies are dropped; level-0 false literals are stripped.

        Every literal must name a variable, in a dropped clause too.

        A unit clause is asserted at level 0, and an empty one makes the
        solver unsat. Otherwise the clause is watched on two literals, and
        above level 0 the trail is kept if two literals are unfalsified; if
        not, it is backtracked just far enough to free two.
        """
        self._failed = None
        level = self._level
        val = self._val
        trail = self._trail  # no literal has a value while it is empty
        top = 2 * self.num_vars + 1
        seen = set()
        out = [0]  # no guard
        dropped = not self.ok  # the rest of the clause is only range-checked
        for lit in lits:
            code = lit + lit if lit > 0 else 1 - lit - lit
            if code > top or code < 2:
                raise ValueError(f"literal {lit} out of range")
            if dropped or code in seen:
                continue
            if code ^ 1 in seen:
                dropped = True  # tautology
                continue
            if trail and val[code] != 0 and level[code >> 1] == 0:
                dropped = val[code] == 1  # satisfied at level 0
                continue  # or permanently false
            seen.add(code)
            out.append(code)
        if dropped:
            return
        if len(out) == 1:
            self.ok = False
            return
        if len(out) == 2:
            self._backtrack(0)
            self._enqueue(out[1], None)
            if self._propagate() is not None:
                self.ok = False
            return
        if self._lim:
            self._free_watches(out)
        self._watches[out[1]].append(out)
        self._watches[out[2]].append(out)

    def _free_watches(self, clause) -> None:
        """Move the two literals that stay unfalsified longest to the watch slots.

        Unfalsified literals rank above false ones, which rank by level. If the
        second literal is false, backtrack to just below its level, which frees
        both watched literals.
        """
        level = self._level
        val = self._val
        free = len(self._lim) + 1
        ranks = [level[lit >> 1] if val[lit] == -1 else free for lit in clause]
        for pos in (1, 2):
            best = max(range(pos, len(clause)), key=ranks.__getitem__)
            clause[pos], clause[best] = clause[best], clause[pos]
            ranks[pos], ranks[best] = ranks[best], ranks[pos]
        if ranks[2] < free:
            self._backtrack(ranks[2] - 1)

    def solve(self, assumed: int = 0) -> bool:
        """Decide satisfiability under the assumptions of one mask.

        Bit v - 1 of `assumed` set assumes variable v true. A selector whose
        bit is clear is assumed false, and any other variable whose bit is
        clear is free; a bit beyond the last variable, or a negative mask, is
        refused. The solver orders the assumptions as the module docstring
        says. A call with the previous call's mask keeps the whole trail, any
        other the levels of the prefix the two orders share; see the module
        docstring for the model this returns.
        """
        self._model_mask = None
        self._failed = 0
        n = self.num_vars
        base = self._selector
        count = n + 1 - base  # selectors
        if not 0 <= assumed < 1 << n:
            raise ValueError(f"assumption mask {assumed:#x} out of range for {n} variables")
        if not self.ok:
            return False
        selected = assumed >> (base - 1)
        plain = assumed ^ selected << (base - 1)
        # the previous order holds its selectors first, so it stays valid up
        # to the first selector whose bit changed
        previous = self._assumed
        changed = selected ^ self._selected
        same = min(len(previous), (changed & -changed).bit_length() - 1 if changed else count)
        assume = previous[:same]
        assume += [2 * (base + i) + (not selected >> i & 1) for i in range(same, count)]
        for code in previous[count:]:  # the previous plain assumptions, while still assumed
            bit = 1 << (code >> 1) - 1
            if not plain & bit:
                break
            assume.append(code)
            plain ^= bit
        assume += [2 * v for v in set_bits(plain)]
        if assume != previous:
            limit = min(len(self._lim), len(assume), len(previous))
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
                if len(learnt) == 2:
                    self._enqueue(learnt[1], None)
                else:
                    watches[learnt[1]].append(learnt)
                    watches[learnt[2]].append(learnt)
                    self._enqueue(learnt[1], learnt)
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
                    if watches[lit ^ 1]:
                        break
                    self._qhead += 1  # nothing to propagate
            else:
                try:
                    # both codes of a variable are assigned together, so this is 2v
                    branch = self._free = val.index(0, self._free)
                except ValueError:  # no variable is free
                    self._failed = None
                    self._save_model()
                    return True
                lim.append(len(trail))
                self._enqueue(branch | 1, None)

    def failed_selectors(self) -> int:
        """A mask of selectors that, with the last solve's plain assumptions, the clauses refute.

        Valid after an UNSAT answer until the next `solve` or `add_clause`.
        Bit i stands for selector i. The mask holds the selector found false
        and every selector its negation was derived from, including those in
        the guards of the clauses it was derived by; it is 0 when the clauses
        are UNSAT without assumptions. Plain assumptions are never named.
        """
        failed = self._failed
        if failed is None:
            raise RuntimeError("no failed selectors; last solve was sat or never ran")
        first = 2 * self._selector  # the code of the first selector assumed true
        core = 1 << (failed - first >> 1) if failed >= first and not failed & 1 else 0
        level = self._level
        if level[failed >> 1] == 0:  # also when no assumption failed: level[0] is 0
            return core
        reason = self._reason
        trail = self._trail
        seen = bytearray(self.num_vars + 1)
        seen[failed >> 1] = 1
        for idx in range(len(trail) - 1, self._lim[0] - 1, -1):
            lit = trail[idx]
            if not seen[lit >> 1]:
                continue
            clause = reason[lit >> 1]
            if clause is None:  # every decision so far is an assumption
                if lit >= first and not lit & 1:
                    core |= 1 << (lit - first >> 1)
                continue
            for other in clause[2:]:
                w = other >> 1
                if level[w] > 0:
                    seen[w] = 1
            core |= clause[0]
        return core

    def _enqueue(self, lit: int, reason) -> None:
        self._val[lit] = 1
        self._val[lit ^ 1] = -1
        v = lit >> 1
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
            val[lit ^ 1] = 0
        self._free = 2  # cheaper than finding the lowest variable undone
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
        current = len(self._lim)
        assumed = -1  # the selectors assumed true at this level, once a guard needs them
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            ws = watches[false_lit]
            if not ws:
                continue
            j = 0  # ws[:j] holds the clauses visited so far that keep watching false_lit
            visiting = iter(ws)
            for clause in visiting:
                first = clause[1]
                if first == false_lit:
                    first = clause[2]
                    clause[1] = first
                    clause[2] = false_lit
                if val[first] == 1:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(3, len(clause)):
                    other = clause[k]
                    if val[other] != -1:
                        clause[2] = other
                        clause[k] = false_lit
                        watches[other].append(clause)
                        break
                else:
                    guard = clause[0]
                    if guard:
                        if assumed < 0:  # level i decided selector i - 1
                            assumed = self._selected & ((1 << current) - 1)
                        missing = guard & ~assumed
                        if missing:
                            # park a selector that is not assumed true as the new watch,
                            # preferring one this solve assumes false
                            top = (missing & ~self._selected or missing).bit_length() - 1
                            sel = 2 * (self._selector + top) + 1
                            clause[0] = guard ^ 1 << top
                            clause[2] = sel
                            clause.append(false_lit)
                            watches[sel].append(clause)
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
                    val[first ^ 1] = -1
                    v = first >> 1
                    level[v] = current
                    reason[v] = clause
                    trail.append(first)
            del ws[j:]
        self._qhead = qhead
        return None

    def _analyze(self, conflict):
        """First-UIP conflict analysis; returns (learnt clause, backjump level).

        A passed clause's guard was decided below this level, so it joins the
        learnt clause's selectors as it is; the one guard rule of the module
        docstring then factors them.
        """
        level = self._level
        reason = self._reason
        trail = self._trail
        base = self._selector
        current = len(self._lim)
        seen = bytearray(self.num_vars + 1)
        learnt = [0, 0]  # the guard, then the asserting literal
        guard = listed = 0  # selectors below this level: all of them, those among the literals
        counter = 0
        pivot = 0
        idx = len(trail) - 1
        while True:
            # reason clauses keep their implied literal at slot 1; skip it
            for lit in conflict[2 if pivot else 1:]:
                v = lit >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    if level[v] >= current:
                        counter += 1
                    else:
                        learnt.append(lit)
                        if v >= base:
                            listed |= 1 << (v - base)
            guard |= conflict[0]
            while not seen[trail[idx] >> 1]:
                idx -= 1
            pivot = trail[idx]
            idx -= 1
            pv = pivot >> 1
            seen[pv] = 0
            counter -= 1
            if counter == 0:
                break
            conflict = reason[pv]
        learnt[1] = pivot ^ 1
        guard |= listed
        if guard != listed or guard.bit_count() >= GUARD_MIN:
            # the selector assumed last stays a literal, so the clause still
            # fires when it is assumed; the others leave the literal list
            top = guard.bit_length() - 1
            first = 2 * base
            learnt[2:] = [lit for lit in learnt[2:] if lit < first or not lit & 1]
            learnt.append(2 * (base + top) + 1)
            learnt[0] = guard ^ 1 << top
        if len(learnt) == 2:
            return learnt, 0
        deepest = 2
        for k in range(3, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[deepest] >> 1]:
                deepest = k
        learnt[2], learnt[deepest] = learnt[deepest], learnt[2]
        return learnt, level[learnt[2] >> 1]

    def _save_model(self) -> None:
        mask = 0
        for v, value in enumerate(self._val[2 : 2 * self._selector : 2]):
            if value == 1:
                mask |= 1 << v
        self._model_mask = mask
