"""Decision procedure for the BMOC constraint system (the Z3 substitute).

The formulas GCatch generates (§3.4) have a specific shape: per-goroutine
total orders on O variables, spawn orderings, channel-state proceed
conditions where CB counts earlier matched operations, and a final blocking
conjunction. z3py is not available offline, so this module decides that
fragment directly with a memoized search over admissible interleavings:

* a *state* is (per-goroutine progress, channel/mutex/waitgroup states);
* a step executes the next occurrence of some goroutine if its proceed
  condition holds — including rendezvous steps that consume a matching
  send/recv pair simultaneously (the P(s,r)=1, O_s=O_r case);
* a goal state has every goroutine at the end of its truncated path; Φ_B
  is then checked against the final primitive states.

A satisfying assignment is returned as a :class:`Solution`: the witness
schedule (explicit O values), the matched pairs (P variables set to 1) and
the final channel states — the same model shape the paper prints for its
working example ("O3 = 0 ∧ ... ∧ CBs7 = 0").

This procedure is sound and complete for the generated fragment: every
model of Φ_R ∧ Φ_B corresponds to an admissible interleaving and vice
versa.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.primitives import Primitive
from repro.constraints.encoding import ConstraintSystem, Occurrence, StopPoint
from repro.detector.paths import OpEvent, SelectChoice, SpawnEvent

MAX_NODES = 50_000

#: version tag of the decision procedure; part of every cache fingerprint,
#: so bumping it invalidates all cached detection results (repro.engine).
#: "2": repeatable-send Φ_B (StopPoint.attempts).
SOLVER_VERSION = "2"

#: decision-procedure outcomes (the paper's SAT / UNSAT / Z3 timeout)
SAT = "sat"
UNSAT = "unsat"
TIMEOUT = "timeout"  # node budget exhausted before a verdict


@dataclass
class Solution:
    """A model of Φ_R ∧ Φ_B."""

    schedule: List[Occurrence] = field(default_factory=list)
    matches: List[Tuple[int, int]] = field(default_factory=list)  # (send occ, recv occ)
    final_states: Dict[str, Tuple[int, bool]] = field(default_factory=dict)

    def order_assignment(self) -> Dict[int, int]:
        """O variable values; matched pairs share the same order index."""
        orders: Dict[int, int] = {}
        partner: Dict[int, int] = {}
        for send_occ, recv_occ in self.matches:
            partner[send_occ] = recv_occ
            partner[recv_occ] = send_occ
        index = 0
        for occ in self.schedule:
            other = partner.get(occ.occ_id)
            if other is not None and other in orders:
                orders[occ.occ_id] = orders[other]
                continue
            orders[occ.occ_id] = index
            index += 1
        return orders

    def render(self) -> str:
        orders = self.order_assignment()
        parts = [f"O{occ.occ_id}={orders.get(occ.occ_id, '?')}" for occ in self.schedule]
        parts.extend(f"P(s{s},r{r})=1" for s, r in self.matches)
        parts.extend(
            f"CB[{label}]={count}{'(closed)' if closed else ''}"
            for label, (count, closed) in self.final_states.items()
        )
        return " ∧ ".join(parts)


class _PrimState:
    """Mutable simulation state of one primitive under the paper's model."""

    __slots__ = ("count", "closed", "readers")

    def __init__(self):
        self.count = 0  # buffered elements / mutex held / waitgroup counter
        self.closed = False
        self.readers = 0

    def key(self) -> Tuple[int, bool, int]:
        return (self.count, self.closed, self.readers)


class _Search:
    def __init__(self, system: ConstraintSystem, max_nodes: Optional[int] = None):
        self.system = system
        self.max_nodes = max_nodes if max_nodes is not None else MAX_NODES
        self.events: Dict[int, List[Occurrence]] = system.per_goroutine
        self.gids = sorted(self.events)
        self.prims = system.primitives()
        self.prim_index = {id(p): i for i, p in enumerate(self.prims)}
        self.visited: set = set()
        self.nodes = 0
        self.exhausted = False  # node budget hit before the search finished
        self.schedule: List[Occurrence] = []
        self.matches: List[Tuple[int, int]] = []

    # -- state helpers ---------------------------------------------------

    def _initial_states(self) -> List[_PrimState]:
        return [_PrimState() for _ in self.prims]

    def _state_of(self, states: List[_PrimState], prim: Primitive) -> _PrimState:
        idx = self.prim_index.get(id(prim))
        if idx is None:
            # primitive only appears in stop events; track it lazily
            self.prims.append(prim)
            self.prim_index[id(prim)] = len(self.prims) - 1
            states.append(_PrimState())
            return states[-1]
        while idx >= len(states):
            states.append(_PrimState())
        return states[idx]

    def _key(self, progress: Tuple[int, ...], states: List[_PrimState]) -> Tuple:
        return (progress, tuple(s.key() for s in states))

    # -- spawn enabling -----------------------------------------------------

    def _enabled(self, gid: int, progress: Dict[int, int]) -> bool:
        spawn = self.system.spawn_of.get(gid)
        if spawn is None:
            return True
        parent_events = self.events[spawn.gid]
        spawn_pos = next(
            (i for i, occ in enumerate(parent_events) if occ is spawn), None
        )
        if spawn_pos is None:
            return True
        return progress[spawn.gid] > spawn_pos

    # -- proceed conditions (Φ_sync) ------------------------------------------

    def _op_executable(
        self, op: OpEvent, states: List[_PrimState], progress: Dict[int, int], self_gid: int
    ) -> Tuple[bool, Optional[Tuple[int, OpEvent]]]:
        """Can this operation proceed *without* a rendezvous partner?

        Returns (solo_ok, partner) where partner is a (gid, OpEvent) whose
        next occurrence forms a rendezvous enabling both.
        """
        state = self._state_of(states, op.prim)
        bs = self.system.buffer_size(op.prim)
        kind = op.kind
        if kind == "send":
            partner = self._find_partner(op.prim, "recv", progress, self_gid)
            if state.closed:
                return True, partner  # proceeds (by panicking) under Go semantics
            return state.count < bs, partner
        if kind == "recv":
            partner = self._find_partner(op.prim, "send", progress, self_gid)
            return state.count > 0 or state.closed, partner
        if kind == "close":
            return True, None
        if kind == "lock":
            return state.count == 0 and state.readers == 0, None
        if kind == "rlock":
            return state.count == 0, None
        if kind == "unlock":
            return state.count == 1, None
        if kind == "runlock":
            return state.readers > 0, None
        if kind == "add":
            return True, None
        if kind == "done":
            return True, None
        if kind == "wait":
            return state.count == 0, None
        if kind == "condwait":
            # Wait = receive on an unbuffered pseudo-channel: only a
            # simultaneous Signal can let it proceed
            partner = self._find_partner(op.prim, "signal", progress, self_gid)
            return False, partner
        if kind == "signal":
            # Signal = send inside a select with default: never blocks,
            # and may rendezvous with a waiting goroutine
            partner = self._find_partner(op.prim, "condwait", progress, self_gid)
            return True, partner
        return True, None

    def _find_partner(
        self, prim: Primitive, needed_kind: str, progress: Dict[int, int], self_gid: int
    ) -> Optional[Tuple[int, OpEvent]]:
        for gid in self.gids:
            if gid == self_gid or not self._enabled(gid, progress):
                continue
            events = self.events[gid]
            pos = progress[gid]
            if pos >= len(events):
                continue
            occ = events[pos]
            candidate = _op_of(occ)
            if candidate is None:
                continue
            if candidate.kind == needed_kind and candidate.prim is prim:
                return gid, candidate
        return None

    def _apply_op(self, op: OpEvent, states: List[_PrimState]) -> None:
        state = self._state_of(states, op.prim)
        bs = self.system.buffer_size(op.prim)
        kind = op.kind
        if kind == "send" and not state.closed and state.count < bs:
            state.count += 1
        elif kind == "recv":
            if state.count > 0:
                state.count -= 1
            # recv from closed-and-empty: state unchanged (zero value)
        elif kind == "close":
            state.closed = True
        elif kind == "lock":
            state.count = 1
        elif kind == "rlock":
            state.readers += 1
        elif kind == "unlock":
            state.count = 0
        elif kind == "runlock":
            state.readers = max(0, state.readers - 1)
        elif kind == "add":
            state.count += _wg_delta(op)
        elif kind == "done":
            state.count = max(0, state.count - 1)
        # 'wait' leaves state unchanged

    def _select_executable(
        self, choice: SelectChoice, states: List[_PrimState], progress: Dict[int, int], gid: int
    ) -> Tuple[bool, Optional[Tuple[int, OpEvent]], Optional[OpEvent]]:
        """(executable_solo, rendezvous_partner, op_to_apply)."""
        chosen = choice.chosen
        if chosen == "other":
            return True, None, None
        if chosen == "default":
            # default proceeds only when no case can proceed right now
            for case in choice.pset_cases:
                solo, partner = self._op_executable(case, states, progress, gid)
                if solo or partner is not None:
                    return False, None, None
            return True, None, None
        assert isinstance(chosen, OpEvent)
        solo, partner = self._op_executable(chosen, states, progress, gid)
        return solo, partner, chosen

    # -- main search -------------------------------------------------------------

    def run(self) -> Optional[Solution]:
        progress = {gid: 0 for gid in self.gids}
        states = self._initial_states()
        if self._dfs(progress, states):
            final: Dict[str, Tuple[int, bool]] = {}
            for prim in self.prims:
                state = self._state_of(states, prim)
                final[prim.site.label or str(prim.site)] = (state.count, state.closed)
            return Solution(
                schedule=list(self.schedule), matches=list(self.matches), final_states=final
            )
        return None

    def _dfs(self, progress: Dict[int, int], states: List[_PrimState]) -> bool:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.exhausted = True
            return False
        if all(progress[gid] >= len(self.events[gid]) for gid in self.gids):
            return self._check_blocking(states, progress)
        key = self._key(tuple(progress[g] for g in self.gids), states)
        if key in self.visited:
            return False
        self.visited.add(key)
        for gid in self.gids:
            pos = progress[gid]
            events = self.events[gid]
            if pos >= len(events) or not self._enabled(gid, progress):
                continue
            occ = events[pos]
            event = occ.event
            if isinstance(event, SpawnEvent):
                if self._step_simple(gid, occ, progress, states, apply_op=None):
                    return True
                continue
            if isinstance(event, OpEvent):
                solo, partner = self._op_executable(event, states, progress, gid)
                if solo and self._step_simple(gid, occ, progress, states, apply_op=event):
                    return True
                if partner is not None and self._step_rendezvous(
                    gid, occ, event, partner, progress, states
                ):
                    return True
                continue
            if isinstance(event, SelectChoice):
                solo, partner, op = self._select_executable(event, states, progress, gid)
                if solo and self._step_simple(gid, occ, progress, states, apply_op=op):
                    return True
                if partner is not None and op is not None and self._step_rendezvous(
                    gid, occ, op, partner, progress, states
                ):
                    return True
                continue
        return False

    def _step_simple(
        self,
        gid: int,
        occ: Occurrence,
        progress: Dict[int, int],
        states: List[_PrimState],
        apply_op: Optional[OpEvent],
    ) -> bool:
        saved = [s.key() for s in states]
        if apply_op is not None:
            self._apply_op(apply_op, states)
        progress[gid] += 1
        self.schedule.append(occ)
        if self._dfs(progress, states):
            return True
        self.schedule.pop()
        progress[gid] -= 1
        _restore(states, saved)
        return False

    def _step_rendezvous(
        self,
        gid: int,
        occ: Occurrence,
        op: OpEvent,
        partner: Tuple[int, OpEvent],
        progress: Dict[int, int],
        states: List[_PrimState],
    ) -> bool:
        partner_gid, partner_op = partner
        partner_occ = self.events[partner_gid][progress[partner_gid]]
        saved = [s.key() for s in states]
        # a rendezvous transfers directly: net channel state is unchanged
        progress[gid] += 1
        progress[partner_gid] += 1
        self.schedule.append(occ)
        self.schedule.append(partner_occ)
        if op.kind == "send":
            self.matches.append((occ.occ_id, partner_occ.occ_id))
        else:
            self.matches.append((partner_occ.occ_id, occ.occ_id))
        if self._dfs(progress, states):
            return True
        self.matches.pop()
        self.schedule.pop()
        self.schedule.pop()
        progress[gid] -= 1
        progress[partner_gid] -= 1
        _restore(states, saved)
        return False

    # -- Φ_B -------------------------------------------------------------------

    def _check_blocking(self, states: List[_PrimState], progress: Dict[int, int]) -> bool:
        for stop in self.system.stops:
            if not self._stop_blocked(stop, states):
                return False
        return True

    def _stop_blocked(self, stop: StopPoint, states: List[_PrimState]) -> bool:
        event = stop.event
        if isinstance(event, OpEvent):
            return self._op_blocked(event, states, getattr(stop, "attempts", 1))
        if isinstance(event, SelectChoice):
            if event.has_default or event.has_other_cases:
                return False
            return all(self._op_blocked(case, states) for case in event.pset_cases)
        return False

    def _op_blocked(
        self, op: OpEvent, states: List[_PrimState], attempts: Optional[int] = 1
    ) -> bool:
        state = self._state_of(states, op.prim)
        bs = self.system.buffer_size(op.prim)
        kind = op.kind
        if kind == "send":
            if state.closed:
                return False
            if attempts is None:
                # unboundedly repeated send (cut loop): any finite buffer
                # headroom is eventually exhausted
                return True
            # attempts=1 reduces to the paper's CB >= BS rule
            return attempts > bs - state.count
        if kind == "recv":
            return not state.closed and state.count == 0
        if kind == "lock":
            return state.count == 1 or state.readers > 0
        if kind == "rlock":
            return state.count == 1
        if kind == "wait":
            return state.count > 0
        if kind == "condwait":
            return True  # no future signal can arrive once everyone stopped
        return False


def _restore(states: List[_PrimState], saved: List[Tuple[int, bool, int]]) -> None:
    for state, key in zip(states, saved):
        state.count, state.closed, state.readers = key
    # states added lazily after the snapshot were fresh: reset them
    for state in states[len(saved) :]:
        state.count, state.closed, state.readers = 0, False, 0


def _op_of(occ: Occurrence) -> Optional[OpEvent]:
    if isinstance(occ.event, OpEvent):
        return occ.event
    if isinstance(occ.event, SelectChoice) and isinstance(occ.event.chosen, OpEvent):
        return occ.event.chosen
    return None


def _wg_delta(op: OpEvent) -> int:
    from repro.ssa import ir

    instr = op.instr
    if isinstance(instr, ir.WgAdd) and isinstance(instr.delta, ir.Const):
        return int(instr.delta.value or 0)
    return 1


@dataclass
class SolveOutcome:
    """One decision-procedure invocation, with its effort accounted."""

    solution: Optional[Solution]
    outcome: str  # SAT | UNSAT | TIMEOUT
    nodes: int  # interleaving-search states visited
    clauses: int  # size of the constraint system decided

    @property
    def sat(self) -> bool:
        return self.solution is not None


def solve_detailed(
    system: ConstraintSystem, collector=None, max_nodes: Optional[int] = None
) -> SolveOutcome:
    """Decide Φ_R ∧ Φ_B and report the verdict plus solver effort.

    ``collector`` (a :class:`repro.obs.Collector`) receives the
    ``solver.calls`` / ``solver.sat`` / ``solver.unsat`` /
    ``solver.timeout`` / ``solver.nodes`` counters. ``max_nodes``
    overrides the module-level :data:`MAX_NODES` budget for this call —
    the per-primitive node-budget discipline of :mod:`repro.engine`.
    """
    search = _Search(system, max_nodes=max_nodes)
    solution = search.run()
    if solution is not None:
        outcome = SAT
    elif search.exhausted:
        outcome = TIMEOUT
    else:
        outcome = UNSAT
    if collector:
        collector.count("solver.calls")
        collector.count(f"solver.{outcome}")
        collector.count("solver.nodes", search.nodes)
    return SolveOutcome(
        solution=solution, outcome=outcome, nodes=search.nodes, clauses=system.clause_count()
    )


def solve(system: ConstraintSystem, collector=None) -> Optional[Solution]:
    """Decide Φ_R ∧ Φ_B; returns a witness Solution or None (UNSAT)."""
    return solve_detailed(system, collector).solution
