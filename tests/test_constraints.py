"""Tests for the constraint system and its solver (the Z3 substitute)."""

from repro.analysis.alias import run_alias_analysis
from repro.analysis.callgraph import build_call_graph
from repro.analysis.dependency import build_dependency_graph, compute_pset
from repro.analysis.primitives import find_primitives
from repro.analysis.scope import compute_all_scopes
from repro.constraints.encoding import StopPoint, encode
from repro.constraints.solver import solve
from repro.constraints.variables import BufferSizeConst, OrderVar
from repro.detector.paths import OpEvent, PathEnumerator, enumerate_combinations
from repro.detector.suspicious import enumerate_groups
from tests.conftest import build


def setup(source: str, channel_label: str = None):
    prog = build(source)
    cg = build_call_graph(prog)
    alias = run_alias_analysis(prog, cg)
    pmap = find_primitives(prog, cg, alias)
    scopes = compute_all_scopes(pmap, cg)
    deps = build_dependency_graph(prog, cg, pmap)
    channels = [p for p in pmap if p.site.kind == "chan"]
    if channel_label:
        channels = [p for p in channels if p.site.label.startswith(channel_label)]
    chan = channels[0]
    pset = compute_pset(chan, deps, scopes)
    scope = scopes[chan]
    enumerator = PathEnumerator(prog, cg, alias, pmap, pset, scope.functions)
    combos = enumerate_combinations(enumerator, scope.lca)
    return chan, combos


def groups_of(combo):
    return list(enumerate_groups(combo))


class TestVariables:
    def test_printable_forms(self):
        assert str(OrderVar(7)) == "O7"
        assert str(BufferSizeConst("ch", 0)) == "BS[ch]=0"


class TestEncoding:
    SIMPLE = (
        "func f() {\n\tch := make(chan int)\n"
        "\tgo func() {\n\t\tch <- 1\n\t}()\n\tprintln(0)\n}"
    )

    def test_per_goroutine_order_constraints(self):
        chan, combos = setup(
            "func f() {\n\tch := make(chan int, 2)\n\tch <- 1\n\tch <- 2\n\t<-ch\n}"
        )
        # some group stops late enough that two occurrences remain ordered
        constrained = []
        for combo in combos:
            for group in groups_of(combo):
                constrained.extend(encode(combo, group).order_constraints)
        assert constrained

    def test_spawn_constraint_links_child(self):
        chan, combos = setup(self.SIMPLE)
        combo = combos[0]
        groups = groups_of(combo)
        system = encode(combo, groups[0])
        child_gids = [g for g in system.spawn_of if system.spawn_of[g] is not None]
        assert child_gids

    def test_truncation_before_stop(self):
        chan, combos = setup(self.SIMPLE)
        combo = combos[0]
        stop_group = groups_of(combo)[0]
        system = encode(combo, stop_group)
        stop_gid = stop_group[0].gid
        # the stopped goroutine's event list excludes the stop event
        events = system.per_goroutine[stop_gid]
        assert all(occ.event is not stop_group[0].event for occ in events)

    def test_buffer_sizes_recorded(self):
        chan, combos = setup(self.SIMPLE)
        combo = combos[0]
        system = encode(combo, groups_of(combo)[0])
        assert chan in system.buffer_sizes
        assert system.buffer_sizes[chan] == 0

    def test_render_mentions_phases(self):
        chan, combos = setup(self.SIMPLE)
        combo = combos[0]
        system = encode(combo, groups_of(combo)[0])
        text = system.render()
        assert "Φ_order" in text and "Φ_B" in text


class TestSolver:
    def _solve_all(self, source, channel_label=None):
        """Return (sat_groups, unsat_groups) across all combos of a channel."""
        chan, combos = setup(source, channel_label)
        sat, unsat = [], []
        for combo in combos:
            for group in groups_of(combo):
                system = encode(combo, group)
                solution = solve(system)
                (sat if solution is not None else unsat).append((group, solution))
        return sat, unsat

    def test_unreceived_send_is_sat(self):
        sat, _ = self._solve_all(
            "func f() {\n\tch := make(chan int)\n\tgo func() {\n\t\tch <- 1\n\t}()\n\tprintln(0)\n}"
        )
        assert sat

    def test_balanced_rendezvous_is_unsat(self):
        sat, unsat = self._solve_all(
            "func f() {\n\tch := make(chan int)\n\tgo func() {\n\t\tch <- 1\n\t}()\n\t<-ch\n}"
        )
        assert not sat
        assert unsat

    def test_buffered_send_not_blocked(self):
        sat, _ = self._solve_all(
            "func f() {\n\tch := make(chan int, 1)\n\tgo func() {\n\t\tch <- 1\n\t}()\n\tprintln(0)\n}"
        )
        assert not sat

    def test_close_unblocks_receiver(self):
        sat, _ = self._solve_all(
            "func f() {\n\tch := make(chan int)\n\tgo func() {\n\t\tclose(ch)\n\t}()\n\t<-ch\n}"
        )
        assert not sat

    def test_missing_close_blocks_receiver(self):
        sat, _ = self._solve_all(
            "func f() {\n\tch := make(chan int)\n\tgo func() {\n\t\tprintln(1)\n\t}()\n\t<-ch\n}"
        )
        assert sat

    def test_mutex_deadlock_found(self):
        sat, _ = self._solve_all(
            "func f() {\n\tvar mu sync.Mutex\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tmu.Lock()\n\t\tch <- 1\n\t\tmu.Unlock()\n\t}()\n"
            "\tmu.Lock()\n\t<-ch\n\tmu.Unlock()\n}"
        )
        assert sat

    def test_mutex_correct_order_unsat(self):
        sat, _ = self._solve_all(
            "func f() {\n\tvar mu sync.Mutex\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tmu.Lock()\n\t\tmu.Unlock()\n\t\tch <- 1\n\t}()\n"
            "\tmu.Lock()\n\tmu.Unlock()\n\t<-ch\n}"
        )
        assert not sat

    def test_witness_has_schedule_and_orders(self):
        sat, _ = self._solve_all(
            "func f() {\n\tch := make(chan int)\n\tgo func() {\n\t\tch <- 1\n\t}()\n\tprintln(0)\n}"
        )
        group, solution = sat[0]
        orders = solution.order_assignment()
        assert orders
        values = list(orders.values())
        assert values == sorted(values)
        assert "CB[" in solution.render()

    def test_rendezvous_matches_share_order(self):
        chan, combos = setup(
            "func f() {\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tch <- 1\n\t\tch <- 2\n\t}()\n\t<-ch\n\tprintln(0)\n}"
        )
        found = None
        for combo in combos:
            for group in groups_of(combo):
                system = encode(combo, group)
                solution = solve(system)
                if solution is not None and solution.matches:
                    found = solution
        assert found is not None
        orders = found.order_assignment()
        for send_occ, recv_occ in found.matches:
            assert orders[send_occ] == orders[recv_occ]

    def test_waitgroup_channel_deadlock(self):
        # child: Wait then send; parent: recv then Done — circular wait.
        # The wg joins the channel's Pset because Done can unblock Wait.
        sat, _ = self._solve_all(
            "func f() {\n\tvar wg sync.WaitGroup\n\tch := make(chan int)\n"
            "\twg.Add(1)\n"
            "\tgo func() {\n\t\twg.Wait()\n\t\tch <- 1\n\t}()\n"
            "\t<-ch\n\twg.Done()\n}"
        )
        assert sat

    def test_waitgroup_without_done_not_modeled(self):
        # with no Done anywhere, the wg never joins the Pset (no unblocking
        # operation), so this blocking bug is missed — the paper's
        # "unmodeled primitive" blind spot
        sat, _ = self._solve_all(
            "func f() {\n\tvar wg sync.WaitGroup\n\tch := make(chan int)\n"
            "\twg.Add(1)\n"
            "\tgo func() {\n\t\twg.Wait()\n\t\tch <- 1\n\t}()\n"
            "\t<-ch\n}"
        )
        assert not sat

    def test_select_default_requires_blocked_cases(self):
        # default is only choosable when no case can proceed; with a
        # buffered channel, the send case is always ready, so combos through
        # default are unsatisfiable and no bug is reported
        sat, _ = self._solve_all(
            "func f() {\n\tch := make(chan int, 1)\n"
            "\tgo func() {\n\t\tselect {\n\t\tcase ch <- 1:\n\t\tdefault:\n\t\t}\n\t}()\n"
            "\t<-ch\n}"
        )
        assert not sat
