"""Usage-scope computation for primitives (§3.2, "How to compute scope?").

The scope of a channel extends from its creation site to the end of the
lowest-common-ancestor (LCA) function that can invoke all of the channel's
operations directly or indirectly, including every function called in
between. When no single function covers all operations (library analysis),
the scope is the union of the scopes of a covering set of functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.analysis.callgraph import CallGraph
from repro.analysis.primitives import Primitive, PrimitiveMap


@dataclass
class Scope:
    primitive: Primitive
    lca: Optional[str]
    functions: Set[str]

    @property
    def size(self) -> int:
        return len(self.functions)

    def __repr__(self) -> str:
        return f"<Scope lca={self.lca} |funcs|={self.size}>"


def compute_scope(primitive: Primitive, call_graph: CallGraph) -> Scope:
    program = call_graph.program
    if primitive.site.kind == "ctxdone":
        # context Done channels originate outside the analyzed program, so
        # their scope is the whole program (larger than any local channel's)
        return Scope(primitive, lca=None, functions=set(program.functions))
    op_functions = {op.function for op in primitive.operations}
    op_functions = {f for f in op_functions if f in program.functions}
    if not op_functions:
        return Scope(primitive, lca=None, functions=set())
    # the reach closure and its inverse are memoized on the call graph, so
    # all primitives of one program share them instead of re-deriving them
    reach = call_graph.reach_closure
    covering = call_graph.covering_roots(op_functions)
    if covering:
        lca = min(covering, key=lambda f: (len(reach(f)), f))
        return Scope(primitive, lca=lca, functions=set(reach(lca)))
    # library case: no single root covers every operation; union the scopes
    # of the functions that directly contain operations
    union: Set[str] = set()
    for f in op_functions:
        union |= reach(f)
    return Scope(primitive, lca=None, functions=union)


def compute_all_scopes(pmap: PrimitiveMap, call_graph: CallGraph) -> Dict[Primitive, Scope]:
    return {prim: compute_scope(prim, call_graph) for prim in pmap}
