"""The indexed disentangling front half decides what the pairwise one did.

Rule 1 of the dependency graph is built from indexes: unblocking
operations grouped by function, each blocking function's inter-procedural
targets taken once from ``CallGraph.reach_closure``, and same-function
pairs decided by one ``cfg.ReachIndex`` per function. ``compute_scope``
intersects the call graph's inverse reach closure, and ``compute_pset``
tests only the channel's dependency-graph successors. This module keeps
the earlier implementations as reference oracles — the pairwise rule-1
loop with its private call/spawn closure (``_ExecReach``) and the linear
CFG scans, the per-function covering scan, the full Pset loop — and
asserts identical rule-1 pairs, closed dependency edges, scopes (LCA and
function set) and ordered Psets on:

* the 21 Table 1 apps;
* the Docker app split into one file per template instance plus
  ``main.go``, the project the daemon edit-loop benchmark serves;
* the 49-program bug set;
* the first 100 seed-0 fuzz programs (``-m slow``: 200 programs each of
  seeds 0-2).

It also pins every shard fingerprint of the 21 apps, the bug set and the
split Docker project, so a warm disk cache written before the indexes
stays valid without an ``ENGINE_VERSION`` bump. The goldens are sha256
digests (first 16 hex digits) of each program's sorted ``{shard key:
fingerprint}`` plan, captured on the pairwise implementation (commit
5295120) with this module copied into that checkout and run from its
root::

    PYTHONPATH=src python - <<'EOF'
    from tests.test_disentangle_index import fingerprint_digests
    print(" ".join(fingerprint_digests()))
    EOF
"""

import copy
import hashlib
import json
from typing import Dict, List, Set, Tuple

import pytest

from repro.analysis import dependency
from repro.analysis.scope import Scope
from repro.corpus.apps import build_corpus
from repro.corpus.bugset import build_bug_set
from repro.detector.bmoc import BMOCDetector
from repro.engine.invalidate import shard_fingerprints
from repro.fuzz.generator import generate_program
from repro.ssa import cfg
from repro.ssa.builder import build_program, build_program_from_files, parse_source_file
from tests.conftest import split_docker_files


# -- reference oracles: the pairwise implementations ------------------------


def reference_instr_reaches(func, first, second) -> bool:
    """``cfg.instr_reaches`` as two linear block scans plus a fresh DFS."""
    first_block = cfg.instruction_block(func, first)
    second_block = cfg.instruction_block(func, second)
    if first_block is None or second_block is None:
        return False
    if first_block.id == second_block.id:
        instrs = list(first_block.all_instrs())
        first_idx = next(i for i, x in enumerate(instrs) if x is first)
        second_idx = next(i for i, x in enumerate(instrs) if x is second)
        if first_idx < second_idx:
            return True
    return any(cfg.block_reaches(succ, second_block) for succ in first_block.successors())


class _ExecReach:
    """Conservative 'can execute after' relation between operations, with
    its own closure over call and spawn edges."""

    def __init__(self, program, call_graph):
        self.program = program
        self.call_graph = call_graph
        self._reach_cache: Dict[str, Set[str]] = {}

    def _reach_functions(self, name: str) -> Set[str]:
        if name in self._reach_cache:
            return self._reach_cache[name]
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.call_graph.callees(current) - seen)
            for _, child in self.call_graph.spawn_sites(current):
                if child is not None and child not in seen:
                    frontier.append(child)
        self._reach_cache[name] = seen
        return seen

    def op_reaches(self, first_fn, first, second_fn, second) -> bool:
        if first_fn == second_fn:
            func = self.program.functions.get(first_fn)
            if func is not None and reference_instr_reaches(func, first, second):
                return True
        reachable = self._reach_functions(first_fn)
        return second_fn in reachable and second_fn != first_fn


def reference_rule1(program, call_graph, prims) -> Set[Tuple[object, object]]:
    reach = _ExecReach(program, call_graph)
    pairs = set()
    for a in prims:
        unblockers = [op for op in a.operations if op.unblocking]
        if not unblockers:
            continue
        for b in prims:
            if a is b:
                continue
            for b_op in b.operations:
                if not b_op.blocking:
                    continue
                if any(
                    reach.op_reaches(b_op.function, b_op.instr, u.function, u.instr)
                    for u in unblockers
                ):
                    pairs.add((a, b))
                    break
    return pairs


def reference_graph(program, call_graph, prims) -> dependency.DependencyGraph:
    graph = dependency.DependencyGraph()
    for a in prims:
        graph.edges.setdefault(a, set())
    for a, b in reference_rule1(program, call_graph, prims):
        graph.add(a, b)
    for a, b, _ in dependency._select_pairs(prims):
        graph.add(a, b)
        graph.add(b, a)
    graph.close_transitively()
    return graph


def reference_scope(primitive, call_graph) -> Scope:
    """Scope by testing every program function as a covering root."""
    program = call_graph.program
    if primitive.site.kind == "ctxdone":
        return Scope(primitive, lca=None, functions=set(program.functions))
    op_functions = {op.function for op in primitive.operations}
    op_functions = {f for f in op_functions if f in program.functions}
    if not op_functions:
        return Scope(primitive, lca=None, functions=set())
    reach = call_graph.reach_closure
    covering = [f for f in program.functions if op_functions <= reach(f)]
    if covering:
        lca = min(covering, key=lambda f: (len(reach(f)), f))
        return Scope(primitive, lca=lca, functions=set(reach(lca)))
    union: Set[str] = set()
    for f in op_functions:
        union |= reach(f)
    return Scope(primitive, lca=None, functions=union)


def reference_pset(channel, dep_graph, scopes) -> list:
    """Pset by testing every primitive of the program."""
    my_key = dependency._scope_key(channel, scopes[channel])
    pset = [channel]
    for other, scope in scopes.items():
        if other is channel or other.site.kind == "ctxdone":
            continue
        if dependency._scope_key(other, scope) < my_key and dep_graph.circular(
            channel, other
        ):
            pset.append(other)
    return pset


def disagreements(program) -> List[str]:
    """Every place the indexed front half differs from the references."""
    detector = BMOCDetector(program)
    call_graph, prims = detector.call_graph, list(detector.pmap)
    out: List[str] = []
    got_pairs = dependency._unblocker_edges(program, call_graph, prims)
    want_pairs = reference_rule1(program, call_graph, prims)
    if len(got_pairs) != len(set(got_pairs)) or set(got_pairs) != want_pairs:
        out.append(f"rule 1: {len(set(got_pairs) ^ want_pairs)} pairs differ")
    want_graph = reference_graph(program, call_graph, prims)
    if detector.dep_graph.edges != want_graph.edges:
        out.append("dependency edges differ")
    want_scopes = {prim: reference_scope(prim, call_graph) for prim in prims}
    for prim in prims:
        got, want = detector.scopes[prim], want_scopes[prim]
        if (got.lca, got.functions) != (want.lca, want.functions):
            out.append(f"scope of {prim.site!r}: {got.lca} vs {want.lca}")
    for prim in prims:
        got = dependency.compute_pset(prim, detector.dep_graph, detector.scopes)
        if got != reference_pset(prim, want_graph, want_scopes):
            out.append(f"pset of {prim.site!r}")
    return out


# -- inputs -------------------------------------------------------------------


def split_docker_program():
    """The Docker app as one file per template instance plus ``main.go``."""
    files = split_docker_files()
    return build_program_from_files(
        [parse_source_file(files[name], name) for name in sorted(files)]
    )


def bugset_programs():
    return [build_program(case.source, case.case_id + ".go") for case in build_bug_set()]


def fuzz_program(seed: int, index: int):
    generated = generate_program(seed, index)
    return build_program(generated.source, generated.name + ".go")


def fingerprint_digest(program) -> str:
    plan = sorted(shard_fingerprints(program).items())
    return hashlib.sha256(json.dumps(plan).encode()).hexdigest()[:16]


def fingerprint_digests() -> List[str]:
    """The 21 apps, the bug set, then the split Docker project."""
    programs = [app.program() for app in build_corpus()]
    programs += bugset_programs()
    programs.append(split_docker_program())
    return [fingerprint_digest(program) for program in programs]


FINGERPRINT_DIGESTS = """
9121a6a36f7a402f 1d360aa91f85427a f0fcd0ea3cd7361e c7cd15abe1ad3202 8ab55d342c337bb5 8e5a729be464186b
14f3e18d49449291 a3301f34e1bcb592 6e209fa59e1fd5bf b73323e9e20a5d08 c031c195a2e321d2 98d21f168a6c77f3
d5980fb44a4ed6ab 3d4ba050a363dd55 2ba6100d62454e57 c71aeb878eac753e 12ba9a5e44b8ec14 2a56351d7061c328
8ae50c431fb6591d 571899fcb9361a2f 81df57f15d51ba78 3f69aa2bc2300713 56cc67558cda934b eda0166369b9a576
3d8bd4a1e5623bad 072ca081c92f17bc d0aaf73690eaf52f 48561ebb39ae1718 5f5fcdfb79ae09c0 8a396ce02926277b
430e50d1ab17fe85 3ea0a56649500553 e46a9d24aebe09d7 4dc3b8fa18db4e12 aa44dacb14a5dd49 65f2d930acb7835d
989e97fa12632255 e719577edbabbbdc 1ea6413f68fe2dfb de6cb5000a831fd8 4fc6b70b3ec2ab55 62b2c5c0f92c9364
37edfbd117af9ca4 92317b82614ac831 1e7b5456ec379876 0d2ef9ce7e3d690b 9e235f733a1a0f63 eab54a45b0f8597d
29232122bf85f7db 531bd070f4d3af6b 029b2239f160f12f 71086044d0b1fe55 0f478f45859d21cf 7651cead631c7e78
c4b9297713ae701e 5f5b774df4e6e871 d783e01970b67265 0269023bc82c30dd b85c8e7af27b57c5 429d7bd0e02e1914
4797dd917efd3094 410c114825548cc1 42f96977efdda8cf 183eedc4979b016b c592643a252288f3 5cb681c21d45b05d
3c7e24402097c040 247c4badcaa7bd79 ec357cacda0b4fa8 e3d08329b8a26de0 14246271e4846c2f
""".split()


# -- tests --------------------------------------------------------------------


def _failures(named_programs) -> Dict[str, List[str]]:
    out = {}
    for name, program in named_programs:
        found = disagreements(program)
        if found:
            out[name] = found
    return out


class TestReferenceEquality:
    def test_table1_apps(self):
        apps = [(app.name, app.program()) for app in build_corpus()]
        assert len(apps) == 21
        assert _failures(apps) == {}

    def test_split_docker_project(self):
        program = split_docker_program()
        assert len(program.functions) == 380
        assert disagreements(program) == []

    def test_bug_set(self):
        cases = build_bug_set()
        programs = list(zip((case.case_id for case in cases), bugset_programs()))
        assert len(programs) == 49
        assert _failures(programs) == {}

    def test_seed0_fuzz_programs(self):
        programs = ((f"s0-p{i}", fuzz_program(0, i)) for i in range(100))
        assert _failures(programs) == {}

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzz_programs_by_seed(self, seed):
        programs = ((f"s{seed}-p{i}", fuzz_program(seed, i)) for i in range(200))
        assert _failures(programs) == {}


class TestReachIndex:
    def test_every_instruction_pair(self):
        """A shared ``ReachIndex`` agrees with the linear scans on every
        ordered pair of instructions, each with itself included, in every
        function of the bug set and the first 100 seed-0 fuzz programs;
        so does ``cfg.instr_reaches`` (one index per call)."""
        programs = bugset_programs() + [fuzz_program(0, i) for i in range(100)]
        checked = 0
        for program in programs:
            for func in program:
                instrs = list(func.instructions())
                index = cfg.ReachIndex(func)
                for first in instrs:
                    for second in instrs:
                        want = reference_instr_reaches(func, first, second)
                        assert index.reaches(first, second) == want
                        checked += 1
                if len(instrs) > 1:
                    first, second = instrs[-1], instrs[0]
                    want = reference_instr_reaches(func, first, second)
                    assert cfg.instr_reaches(func, first, second) == want
        assert checked > 30000

    def test_unknown_instruction_reaches_nothing(self):
        program = build_program(
            "package main\n\nfunc main() {\n\tch := make(chan int, 1)\n\tch <- 1\n}\n"
        )
        func = program.functions["main"]
        known = next(func.instructions())
        stranger = copy.copy(known)
        index = cfg.ReachIndex(func)
        assert not index.reaches(known, stranger)
        assert not index.reaches(stranger, known)


class TestCoveringRoots:
    def test_matches_a_scan_of_every_function(self):
        program = split_docker_program()
        detector = BMOCDetector(program)
        call_graph = detector.call_graph
        reach = call_graph.reach_closure
        checked = 0
        for prim in detector.pmap:
            names = {op.function for op in prim.operations} & set(program.functions)
            if names:
                want = {f for f in program.functions if names <= reach(f)}
                assert call_graph.covering_roots(names) == want
                checked += 1
        assert checked > 100


class TestFingerprintGoldens:
    def test_every_shard_fingerprint_is_unchanged(self):
        got = fingerprint_digests()
        assert len(got) == len(FINGERPRINT_DIGESTS) == 21 + 49 + 1
        assert [i for i, (g, w) in enumerate(zip(got, FINGERPRINT_DIGESTS)) if g != w] == []
