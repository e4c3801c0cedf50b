"""The explorer resumes runs from interpreter checkpoints without changing the search.

Every run but the root one restores a checkpoint taken just before its
branch choice instead of re-executing its prefix from ``main``. These
tests pin the search to the one that replayed every prefix from ``main``:

* golden digests of whole explorations — every ``Exploration`` field,
  every outcome (signature, seed, ``steps``, ``goroutine_steps``,
  ``choice_trace``) and the ``explore.*`` / ``run.*`` counters of a
  ``Collector``, minus the two counters checkpoints introduced and the
  footprint count, which measures how a decision is computed, not what
  it decides. They digest the full search (``every_outcome=True``);
* the first-leak prefix oracle: the default search, which stops at its
  first leaking run, is the full search cut after that run;
* a replay property that needs no checkpoint code: each explored outcome,
  replayed from ``main`` with ``replay_trace``, is the same result;
* a reference search that replays every run from ``main``, compared with
  ``explore`` under settings the goldens leave out: pruning off, timers,
  ``select`` branch points and a branch cap of one;
* the checkpoint copier: identity kept, IR shared, unknown types refused,
  and a run resumed in either phase (entry goroutine running or returned)
  equal to the uninterrupted one.

The goldens are sha256 digests (first 16 hex digits) captured on the
replay-from-``main`` explorer (commit 5df8f5d), with this module copied
into that checkout and run from its root::

    PYTHONPATH=src python - <<'EOF'
    from tests.test_explorer_checkpoints import bugset_digests, pool_digests
    print(" ".join(pool_digests()))
    print(" ".join(bugset_digests()))
    EOF
"""

import hashlib
import json

import pytest

from repro.corpus.bugset import build_bug_set
from repro.fuzz.campaign import CampaignConfig
from repro.fuzz.generator import generate_program
from repro.obs import Collector
from repro.runtime import explorer, scheduler
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.choices import Choice, ChoicePolicy
from repro.runtime.explorer import (
    STOP_EXHAUSTED,
    STOP_FIRST_LEAK,
    STOP_MAX_RUNS,
    Exploration,
    _DirectedPolicy,
    _PrunedRun,
    _sibling_sleep,
    explore,
    outcome_signature,
)
from repro.runtime.interp import Interpreter, Offer
from repro.runtime.scheduler import replay_trace, run_program
from repro.runtime.values import Channel, Closure, Env
from repro.ssa.builder import build_program

from tests.test_explorer import RARE_RACE, TINY_RACE, TINY_SELECT

#: counters added with checkpoints, and the count of footprints the
#: decisions build; the goldens predate them
CHECKPOINT_COUNTERS = ("explore.checkpoints", "explore.restored-steps", "explore.footprints")

POOL = 100

POOL_DIGESTS = """
79349d98c4c36ad3 6d718d94802e651f 36cbe71eb948095d 8f3a913026842960 a557af618c141e38 d538c35405ed4e66
4eb921682b8cfacb d3a3f151b2e15fa5 f4a189107765a8b1 c6cb5f866ef4a21d 89e37c1028c8d044 a6997799c1592009
c5a0383677bc88f7 475d35ad7fc284fd 730cf474510cfe58 37e2e57fa942faf4 f815969275f56e5e 0ec6cff3b4e4b292
4228084e07dcc54f 03c08c9cf529881f b9bf596494421896 26ca0ea5d8802586 b6e299b6863c105b 932ed93974a5c47c
ec4aee319041002f 7a250abc742d5279 4b5573cdf111b892 d7080e4d7bee97da e35ab78499bc1e29 f43afb446c55fdbb
748f616feb94e935 290f08e2906f15b3 4e511287c872d61c 62be8a7c54b07dde 59f67d0f26806129 d0399c42bfc63b0f
b0ad59f7622a0e7e 6ea57292abf3d3d2 19b758136be0b36d 8b4f2cf4b351fcb1 fbe960501fbcbdcf 0751015cf3da7a4f
0c2455644fff1589 60f3c154f1813e38 60da34dfea2f5b4d 6d299a8f937728bf 2eabc98858cfa880 929c8677042b7fbb
cb465fba850c398c a72784dc57db5a27 583d3789bdc49d6b 6b4924fa53c36346 b8aa29866dba96be d2f31758f14487b4
5f13b64ba1440ff2 50a6010ec72bccff 76c5a1aaec682d40 b3953b0c445f4a9c c755cb6781d9c7d2 a3296d3d85ef4103
4eb921682b8cfacb 1545b30baeeb3f82 388504f303b6afd3 8fdbe29fd47eb19a 856d8a6cd6656ecd 94489268cbc6e2f4
94656ecf8d8efe7a 2c7b23dd783ae825 502259ce1ebe846e bd6136b5c6f768ba 2649e57700af6241 f093230aa876fda5
86d01ac6e93b7507 66a6d75d07ed5345 b23198f6642c9f3a 291c195694c611cc a72784dc57db5a27 63b4cbe2d159e4ee
fdd7089ada7488ec d4867508d9aa1a95 d4ba91d05e4880ab 4b67b3c102d738dc be1d6a5f51fa8f05 8f0bfc19fe3aba7f
6e1102a7fa0a27a6 7adac49fa0169b4a c7dc0b9611488d40 b604401c671363ec e728395e70ec38c2 42a53982fcca445b
a008ecc9429156d9 a463ebefe249600b 5968e97874889241 e6444a2abda3173f 2a47b82f1ccd7c44 6201274c7a6cbd6e
ef6acf2bf64dbff3 225edd1a65bd9b36 456f8761da973931 9f6ba8475b48e4cc
""".split()

BUGSET_DIGESTS = """
36396db9de85e318 4d8000f77d0e9237 92a0990f058e3f6b 506a6bc40fcc2f30 176ce8bbbff23c99 092f153d59190083
d7ea2579f60ded99 ede894b7921a07c2 0890ea462944e6d5 c79a90b6b7587eae d3687de30dd43aa2 0c71454ccc68d68d
8d6f46756f3c7a2f e9d6cdeb28279039 9d622108dfecd078 e9bc546c0c805143 be0c3d30a44016cf 4caed6685bf4e5ac
587ea6aceb55579c 9cfec728f238fe9a ec13a0e0cc074d4d 717304c36cf81510 f53d562f102a863f d77f07a9cc39d74f
41e31fa8cfbf543a 39166c4037107c92 333768b10bcf0598 dd7749985a8836d3 d0eb916806c236e2 dfe8d6af2d85beb0
e29322de1a9e4b33 7017bddb3cc0ce0e 2967d4b238e1fad2 2478d62b735dd145 1c2be40ad61d15c9 07d6ffa10b62f43c
3626a22e7165d4d7 e3e480a6db407d76 26e078edca5811c4 a609d70d54f423f8 7f3b9b8bc79aa16b cc95b481c68fb42d
92f9ab7a21e66efa 3119f4262296d4b2 22f7c2f3a33ddff6 d9b124326753f417 64dcffc95d08c95b a95b6052d4daaf9f
3663ece9c6a08dcd
""".split()


def exploration_digest(exploration, collector) -> str:
    counters = {
        name: value
        for name, value in sorted(collector.counters.items())
        if name.startswith(("explore.", "run.")) and name not in CHECKPOINT_COUNTERS
    }
    record = {
        "entry": exploration.entry,
        "runs": exploration.runs,
        "pruned_runs": exploration.pruned_runs,
        "step_limited_runs": exploration.step_limited_runs,
        "backtracks": exploration.backtracks,
        "total_steps": exploration.total_steps,
        "complete": exploration.complete,
        "outcomes": [
            {
                "seed": o.seed,
                "signature": repr(outcome_signature(o)),
                "steps": o.steps,
                "goroutine_steps": sorted(o.goroutine_steps.items()),
                "choice_trace": [[c.kind, c.options, c.index] for c in o.choice_trace],
            }
            for o in exploration.outcomes
        ],
        "counters": counters,
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


def _pool_program(index: int):
    """Program ``index`` of the seed-0 campaign and its entry."""
    generated = generate_program(0, index)
    return build_program(generated.source, generated.name + ".go"), generated.entry


def _explore_at_campaign_defaults(program, entry, **options):
    config = CampaignConfig()
    bounds = dict(
        max_runs=config.max_runs,
        max_steps=config.max_steps,
        max_total_steps=config.max_total_steps,
    )
    bounds.update(options)
    return explore(program, entry=entry, **bounds)


def _explore_pool_program(index: int, collector=None):
    """Program ``index`` of the seed-0 campaign: the full search at campaign defaults."""
    program, entry = _pool_program(index)
    exploration = _explore_at_campaign_defaults(
        program, entry, collector=collector, every_outcome=True
    )
    return program, entry, exploration


def pool_digests():
    digests = []
    for index in range(POOL):
        collector = Collector()
        _, _, exploration = _explore_pool_program(index, collector)
        digests.append(exploration_digest(exploration, collector))
    return digests


def bugset_digests():
    digests = []
    for case in build_bug_set():
        collector = Collector()
        program = build_program(case.source, case.case_id + ".go")
        exploration = explore(
            program, entry=case.driver or "main", collector=collector, every_outcome=True
        )
        digests.append(exploration_digest(exploration, collector))
    return digests


def _mismatches(got, want):
    return [i for i, (g, w) in enumerate(zip(got, want)) if g != w]


class TestGoldenSearch:
    def test_seed0_pool_at_campaign_defaults(self):
        got = pool_digests()
        assert len(got) == len(POOL_DIGESTS)
        assert _mismatches(got, POOL_DIGESTS) == []

    @pytest.mark.slow
    def test_bug_set_at_explore_defaults(self):
        got = bugset_digests()
        assert len(got) == len(BUGSET_DIGESTS)
        assert _mismatches(got, BUGSET_DIGESTS) == []


_SEARCH_FIELDS = (
    "runs",
    "pruned_runs",
    "step_limited_runs",
    "backtracks",
    "total_steps",
    "complete",
    "outcomes",
)


def first_leak_mismatches(explore_with):
    """Where the default search departs from the full one cut after its first leak.

    ``explore_with(**options)`` explores one program under fixed bounds.
    Without a leak the default search must be the full search. With its
    first leak at run k (that outcome's ``seed``), the default search makes
    k+1 runs, keeps the full search's outcomes with seed <= k and equals
    the full search bounded to k+1 runs, except that it stops at the first
    leak where that one stops at the run bound. Returns ``(mismatched
    field names, whether the program leaks)``.
    """
    full = explore_with(every_outcome=True)
    stopped = explore_with()
    leaks = [o.seed for o in full.outcomes if o.blocked_forever]
    cut, mismatched = full, []
    if leaks:
        k = min(leaks)
        cut = explore_with(every_outcome=True, max_runs=k + 1)
        if stopped.runs != k + 1:
            mismatched.append("runs != k+1")
        if stopped.outcomes != [o for o in full.outcomes if o.seed <= k]:
            mismatched.append("outcomes != full outcomes with seed <= k")
    mismatched += [f for f in _SEARCH_FIELDS if getattr(stopped, f) != getattr(cut, f)]
    expected_stop = STOP_FIRST_LEAK if leaks and cut.stopped == STOP_MAX_RUNS else cut.stopped
    if stopped.stopped != expected_stop:
        mismatched.append("stopped")
    return mismatched, bool(leaks)


class TestFirstLeakPrefix:
    def test_seed0_pool_at_campaign_defaults(self):
        mismatched, leaking = {}, 0
        for index in range(POOL):
            program, entry = _pool_program(index)
            fields, leaks = first_leak_mismatches(
                lambda **options: _explore_at_campaign_defaults(program, entry, **options)
            )
            leaking += leaks
            if fields:
                mismatched[index] = fields
        assert mismatched == {}
        assert leaking == 53

    @pytest.mark.slow
    def test_bug_set_at_explore_defaults(self):
        mismatched, leaking = {}, 0
        for case in build_bug_set():
            program = build_program(case.source, case.case_id + ".go")
            fields, leaks = first_leak_mismatches(
                lambda **options: explore(program, entry=case.driver or "main", **options)
            )
            leaking += leaks
            if fields:
                mismatched[case.case_id] = fields
        assert mismatched == {}
        assert leaking == 46


class TestReplayProperty:
    def test_every_explored_outcome_replays_from_main(self):
        max_steps = CampaignConfig().max_steps
        outcomes = 0
        for index in range(30):
            program, entry, exploration = _explore_pool_program(index)
            for outcome in exploration.outcomes:
                outcomes += 1
                replayed = replay_trace(
                    program,
                    outcome.choice_trace,
                    entry=entry,
                    seed=outcome.seed,
                    max_steps=max_steps,
                )
                assert replayed == outcome, f"program {index}, seed {outcome.seed}"
        assert outcomes == 41


# a ``select`` reached while a timer is pending: the all-conflicting
# footprint path, with a select branch point after a sched branch point
TIMER_SELECT = """package main

func main() {
	a := make(chan int, 1)
	b := make(chan int, 1)
	x := 0
	go func() {
		x = 1
		a <- 1
	}()
	go func() {
		time.Sleep(2)
		b <- 2
	}()
	time.Sleep(4)
	select {
	case v := <-a:
		println("a", v, x)
	case v := <-b:
		println("b", v, x)
	}
	println(x)
}
"""


# the sibling that runs the child first reaches a branching ``select`` right
# at its branch choice, so that run checkpoints the state it resumed from
SIBLING_SELECT = """package main

func main() {
	a := make(chan int, 1)
	b := make(chan int, 1)
	done := make(chan int)
	a <- 1
	b <- 2
	go func() {
		select {
		case v := <-a:
			println("a", v)
		case v := <-b:
			println("b", v)
		}
		done <- 1
	}()
	close(b)
	<-done
}
"""


def _explore_from_main(program, prune, max_runs):
    """The reference search: ``explore`` with every run replayed from ``main``."""
    exploration = Exploration(entry="main")
    stack = [([], {})]
    while stack and exploration.runs < max_runs:
        prefix, sleep = stack.pop()
        policy = _DirectedPolicy(prefix, sleep, prune)
        try:
            result = run_program(
                program, seed=exploration.runs, max_steps=20_000, policy=policy
            )
        except _PrunedRun:
            result = None
            exploration.pruned_runs += 1
        exploration.runs += 1
        if result is not None:
            exploration.total_steps += result.steps
            exploration.record(result)
            if result.hit_step_limit:
                exploration.step_limited_runs += 1
                exploration.complete = False
        if policy.truncated:
            exploration.complete = False
        for bp in policy.branch_points:
            base = list(policy.trace[: bp.pos])
            for j in range(1, len(bp.candidates)):
                exploration.backtracks += 1
                child = base + [Choice(bp.kind, bp.options, bp.candidates[j])]
                stack.append((child, _sibling_sleep(bp, j)))
    if stack:
        exploration.complete = False
    return exploration


_BOUNDED = [
    pytest.param(TINY_RACE, False, 64, id="tiny-race-unpruned"),
    pytest.param(RARE_RACE, False, 300, id="rare-race-unpruned"),
    pytest.param(RARE_RACE, True, 512, id="rare-race"),
    pytest.param(TINY_SELECT, False, 512, id="tiny-select-unpruned"),
    pytest.param(TIMER_SELECT, True, 512, id="timer-select"),
    pytest.param(SIBLING_SELECT, True, 512, id="sibling-select"),
]


def _search_mismatches(program, prune, max_runs):
    """Fields where ``explore`` departs from the replay-from-``main`` reference."""
    reference = _explore_from_main(program, prune, max_runs)
    got = explore(program, max_runs=max_runs, prune=prune, max_steps=20_000)
    fields = [f for f in _SEARCH_FIELDS if getattr(got, f) != getattr(reference, f)]
    return fields, got


class TestBoundedSearchMatchesReference:
    @pytest.mark.parametrize("source,prune,max_runs", _BOUNDED)
    def test_checkpointed_search_is_the_replayed_one(self, source, prune, max_runs):
        mismatched, got = _search_mismatches(build_program(source, "bounded.go"), prune, max_runs)
        assert mismatched == []
        assert got.backtracks > 0

    def test_branch_cap_cuts_the_search_like_the_reference(self, monkeypatch):
        # a run records one branch point at most, so runs with more are cut
        monkeypatch.setattr(explorer, "MAX_BRANCH", 1)
        mismatched, got = _search_mismatches(build_program(RARE_RACE, "rare.go"), True, 512)
        assert mismatched == []
        assert not got.complete and got.stopped == STOP_EXHAUSTED
        assert got.backtracks > 0


class TestResumedRuns:
    def test_only_the_root_run_starts_at_main(self, monkeypatch):
        starts = []
        reset = scheduler.reset_runtime_ids
        monkeypatch.setattr(scheduler, "reset_runtime_ids", lambda: (starts.append(1), reset()))
        exploration = explore(build_program(RARE_RACE, "rare.go"))
        assert exploration.runs > 1
        assert len(starts) == 1


class _FirstChoice(ChoicePolicy):
    """Always takes option 0; checkpoints the interpreter before choice ``at``."""

    def __init__(self, at=None, trace=()):
        super().__init__()
        self.trace = list(trace)
        self.at = at
        self.checkpoint = None

    def _decide(self, kind, options, interp):
        if len(self.trace) == self.at:
            self.checkpoint = Checkpoint.take(interp)
        return 0


class TestCheckpointCopies:
    def _parked_main(self):
        program = build_program(RARE_RACE, "rare.go")
        interp = Interpreter(program, _FirstChoice())
        env = Env()
        chan = Channel(0, "int")
        env.vars["ch"] = chan
        env.vars["f"] = Closure("main$1", env)
        main = interp.spawn(program.functions["main"], env)
        main.park([Offer("send", chan, 1)], 3, "send", 0)
        main.resume_action = ("recv_done", chan, 0, True)
        return interp, main, chan

    def test_one_object_stays_one_object(self):
        interp, main, chan = self._parked_main()
        copied = Checkpoint.take(interp).goroutines[main.gid]
        env = copied.frame.env
        assert env is not main.frame.env and env.vars["ch"] is not chan
        assert copied.offers[0].obj is env.vars["ch"]
        assert copied.resume_action[1] is env.vars["ch"]
        assert env.vars["f"].env is env

    def test_ir_is_shared_and_state_is_private(self):
        interp, main, chan = self._parked_main()
        checkpoint = Checkpoint.take(interp)
        copied = checkpoint.goroutines[main.gid]
        assert copied.frame.func is main.frame.func
        assert copied.frame.block is main.frame.block
        chan.buffer.append(7)
        main.frame.env.vars["x"] = 1
        assert not copied.frame.env.vars["ch"].buffer
        assert "x" not in copied.frame.env.vars
        again = checkpoint.copy().goroutines[main.gid]
        assert again.frame.env is not copied.frame.env

    def test_unknown_types_are_refused(self):
        interp, main, _ = self._parked_main()
        main.frame.env.vars["x"] = [1, 2]
        with pytest.raises(TypeError, match="list"):
            Checkpoint.take(interp)

    def test_resumed_run_equals_the_uninterrupted_one(self):
        program = build_program(RARE_RACE, "rare.go")
        whole = run_program(program, policy=_FirstChoice())
        assert len(whole.choice_trace) > 20
        draining = []
        for at in (0, 5, 12, 20):
            taker = _FirstChoice(at=at)
            assert run_program(program, policy=taker) == whole
            draining.append(taker.checkpoint.drain_steps > 0)
            resumed = run_program(
                program,
                policy=_FirstChoice(trace=whole.choice_trace[:at]),
                checkpoint=taker.checkpoint,
            )
            assert resumed == whole
        # main returns at choice 13: the last checkpoint resumes the drain
        assert draining == [False, False, False, True]

    def test_restore_resumes_runtime_ids(self):
        interp, _, _ = self._parked_main()
        checkpoint = Checkpoint.take(interp)
        minted = Channel(0).id
        Channel(0)  # the live run goes on minting
        checkpoint.restore(Interpreter(interp.program, _FirstChoice()))
        assert Channel(0).id == minted
