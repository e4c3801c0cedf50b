"""Lowering from the MiniGo AST to the register IR.

Responsibilities mirroring ``go/ssa``'s builder:

* lexical scoping with unique register names (shadowing-safe), so the
  flow-insensitive alias analysis can key facts on names;
* closure conversion — function literals become named functions with a
  recorded free-variable list and capture-by-reference semantics;
* lowering of ``select``, ``defer``, ``range`` and the sync-library method
  vocabulary (``Lock``/``Unlock``/``Add``/``Done``/``Wait``/``Fatal``/...)
  into first-class IR instructions;
* branch-condition metadata for GCatch's infeasible-path pruning (§3.3);
* a per-declaration record of each build (:class:`Lowering`), so a later
  build of the same project reuses every declaration whose lowering
  inputs are unchanged.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_file
from repro.ssa import ir

# Pseudo-function names used as Defer targets for builtin operations.
DEFER_CLOSE = "$close"
DEFER_UNLOCK = "$unlock"
DEFER_RUNLOCK = "$runlock"
DEFER_LOCK = "$lock"
DEFER_RLOCK = "$rlock"
DEFER_WG_DONE = "$wgdone"
DEFER_SEND = "$send"

_MUTEX_KINDS = ("mutex", "rwmutex")


class BuildError(Exception):
    pass


def kind_of_type(typ: Optional[ast.Type]) -> str:
    """Map an AST type to the coarse 'kind' lattice used during lowering."""
    if typ is None:
        return "any"
    if isinstance(typ, ast.PointerType):
        return kind_of_type(typ.elem)
    if isinstance(typ, ast.ChanType):
        return "chan"
    if isinstance(typ, ast.SliceType):
        return "slice:" + kind_of_type(typ.elem)
    if isinstance(typ, ast.FuncType):
        return "func"
    if isinstance(typ, ast.NamedType):
        name = typ.name
        if name in ("int", "bool", "string", "unit", "error", "any", "buffer"):
            return name
        if name in ("mutex", "rwmutex", "waitgroup", "cond", "context", "testing"):
            return name
        return "struct:" + name
    return "any"


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, str] = {}  # source name -> unique register name

    def lookup(self, name: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def declare(self, name: str, unique: str) -> None:
        self.names[name] = unique


class _LoopContext:
    def __init__(self, continue_block: ir.Block, break_block: ir.Block):
        self.continue_block = continue_block
        self.break_block = break_block


class _FunctionBuilder:
    """Lowers one function body (or function literal) to IR blocks."""

    def __init__(self, module: "ModuleBuilder", func: ir.Function, scope: _Scope, locals_set: set):
        self.module = module
        self.func = func
        self.scope = scope
        self.locals = locals_set
        self.block = func.new_block("entry")
        self.loops: List[_LoopContext] = []
        self._lit_counter = 0

    # -- register helpers ------------------------------------------------

    def temp(self, kind: str = "any") -> ir.Var:
        name = self.module.fresh_name("t")
        self.module.kinds[name] = kind
        self.locals.add(name)
        return ir.Var(name)

    def declare(self, source_name: str, kind: str) -> ir.Var:
        if source_name == "_":
            return self.temp(kind)
        unique = self.module.fresh_name(source_name)
        self.scope.declare(source_name, unique)
        self.module.kinds[unique] = kind
        self.locals.add(unique)
        return ir.Var(unique)

    def resolve(self, name: str) -> Optional[str]:
        return self.scope.lookup(name)

    def kind_of(self, op: ir.Operand) -> str:
        if isinstance(op, ir.Var):
            return self.module.kinds.get(op.name, "any")
        if isinstance(op, (ir.FuncRef, ir.MethodRef)):
            return "func"
        if isinstance(op, ir.Const):
            if isinstance(op.value, bool):
                return "bool"
            if isinstance(op.value, int):
                return "int"
            if isinstance(op.value, str):
                return "string"
        return "any"

    def emit(self, instr: ir.Instr) -> None:
        if self.block.terminated:
            # dead code after return/panic; emit into a fresh unreachable block
            self.block = self.func.new_block("dead")
        self.block.append(instr)

    def terminate(self, term: ir.Terminator) -> None:
        if not self.block.terminated:
            self.block.terminate(term)

    # -- statements --------------------------------------------------------

    def build_block(self, block: ast.Block) -> None:
        saved = self.scope
        self.scope = _Scope(saved)
        for stmt in block.stmts:
            self.build_stmt(stmt)
        self.scope = saved

    def build_stmt(self, stmt: ast.Stmt) -> None:
        method = getattr(self, "_stmt_" + type(stmt).__name__, None)
        if method is None:
            raise BuildError(f"cannot lower statement {type(stmt).__name__}")
        method(stmt)

    def _stmt_Block(self, stmt: ast.Block) -> None:
        self.build_block(stmt)

    def _stmt_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        expr = stmt.expr
        if isinstance(expr, ast.RecvExpr):
            chan = self.eval(expr.chan)
            self.emit(ir.Recv(line=expr.line, dst=None, ok_dst=None, chan=chan))
            return
        if isinstance(expr, ast.CallExpr):
            self.build_call(expr, dsts=[])
            return
        self.eval(expr)

    def _stmt_SendStmt(self, stmt: ast.SendStmt) -> None:
        chan = self.eval(stmt.chan)
        value = self.eval(stmt.value)
        self.emit(ir.Send(line=stmt.line, chan=chan, value=value))

    def _stmt_VarDecl(self, stmt: ast.VarDecl) -> None:
        kind = kind_of_type(stmt.type)
        if stmt.value is not None:
            value = self.eval(stmt.value)
            if kind == "any":
                kind = self.kind_of(value)
            dst = self.declare(stmt.name, kind)
            self.emit(ir.Assign(line=stmt.line, dst=dst, src=value))
            return
        dst = self.declare(stmt.name, kind)
        if kind in _MUTEX_KINDS:
            self.emit(ir.MakeMutex(line=stmt.line, dst=dst, rw=kind == "rwmutex"))
        elif kind == "waitgroup":
            self.emit(ir.MakeWaitGroup(line=stmt.line, dst=dst))
        elif kind == "cond":
            self.emit(ir.MakeCond(line=stmt.line, dst=dst))
        elif kind.startswith("struct:"):
            type_name = kind.split(":", 1)[1]
            fields = self._default_struct_fields(type_name, stmt.line)
            self.emit(ir.MakeStruct(line=stmt.line, dst=dst, type_name=type_name, fields=fields))
        else:
            self.emit(ir.Assign(line=stmt.line, dst=dst, src=ir.Const(_zero_value(kind))))

    def _stmt_AssignStmt(self, stmt: ast.AssignStmt) -> None:
        if len(stmt.rhs) == 1 and len(stmt.lhs) >= 2:
            self._build_multi_assign(stmt)
            return
        if (
            len(stmt.lhs) == 1
            and len(stmt.rhs) == 1
            and isinstance(stmt.rhs[0], ast.MakeExpr)
            and isinstance(stmt.lhs[0], ast.Ident)
        ):
            # lower `ch := make(...)` straight into the named register so
            # the creation site carries the source-level name
            self._build_make_into(stmt.lhs[0], stmt.rhs[0], stmt.is_decl)
            return
        if len(stmt.lhs) != len(stmt.rhs):
            raise BuildError(f"line {stmt.line}: assignment arity mismatch")
        values = [self.eval(rhs) for rhs in stmt.rhs]
        for target, value in zip(stmt.lhs, values):
            self._assign_target(target, value, stmt.is_decl, stmt.line)

    def _build_multi_assign(self, stmt: ast.AssignStmt) -> None:
        rhs = stmt.rhs[0]
        if isinstance(rhs, ast.RecvExpr):
            if len(stmt.lhs) != 2:
                raise BuildError(f"line {stmt.line}: channel receive yields two values")
            chan = self.eval(rhs.chan)
            dst = self._target_var(stmt.lhs[0], self._chan_elem_kind(chan), stmt.is_decl)
            ok = self._target_var(stmt.lhs[1], "bool", stmt.is_decl)
            self.emit(ir.Recv(line=rhs.line, dst=dst, ok_dst=ok, chan=chan))
            return
        if isinstance(rhs, ast.CallExpr):
            dsts = [self._target_var(t, "any", stmt.is_decl) for t in stmt.lhs]
            self.build_call(rhs, dsts=dsts)
            return
        raise BuildError(f"line {stmt.line}: unsupported multi-value assignment")

    def _build_make_into(self, target: ast.Ident, make: ast.MakeExpr, is_decl: bool) -> None:
        size = self.eval(make.size) if make.size is not None else ir.Const(0)
        if isinstance(make.type, ast.ChanType):
            dst = self._target_var(target, "chan", is_decl)
            self.emit(
                ir.MakeChan(
                    line=make.line, dst=dst, elem_type=kind_of_type(make.type.elem), size=size
                )
            )
            return
        if isinstance(make.type, ast.SliceType):
            elem = kind_of_type(make.type.elem)
            dst = self._target_var(target, "slice:" + elem, is_decl)
            self.emit(ir.MakeSlice(line=make.line, dst=dst, elem_type=elem, size=size))
            return
        raise BuildError(f"line {make.line}: make() supports chan and slice types")

    def _target_var(self, target: ast.Expr, kind: str, is_decl: bool) -> ir.Var:
        if not isinstance(target, ast.Ident):
            raise BuildError(f"line {target.line}: assignment target must be a name here")
        if target.name == "_":
            return self.temp(kind)
        if is_decl:
            return self.declare(target.name, kind)
        unique = self.resolve(target.name)
        if unique is None:
            return self.declare(target.name, kind)
        return ir.Var(unique)

    def _assign_target(self, target: ast.Expr, value: ir.Operand, is_decl: bool, line: int) -> None:
        if isinstance(target, ast.Ident):
            if target.name == "_":
                return
            if is_decl:
                dst = self.declare(target.name, self.kind_of(value))
            else:
                unique = self.resolve(target.name)
                if unique is None:
                    dst = self.declare(target.name, self.kind_of(value))
                else:
                    dst = ir.Var(unique)
                    if self.module.kinds.get(unique, "any") == "any":
                        self.module.kinds[unique] = self.kind_of(value)
            self.emit(ir.Assign(line=line, dst=dst, src=value))
            return
        if isinstance(target, ast.SelectorExpr):
            obj = self.eval(target.recv)
            self.emit(ir.FieldSet(line=line, obj=obj, field_name=target.name, value=value))
            return
        if isinstance(target, ast.IndexExpr):
            seq = self.eval(target.seq)
            if self.kind_of(seq) == "string":
                raise BuildError(
                    f"line {line}: cannot assign to a string's byte (strings are immutable)"
                )
            index = self.eval(target.index)
            self.emit(ir.IndexSet(line=line, seq=seq, index=index, value=value))
            return
        if isinstance(target, ast.UnaryExpr) and target.op == "*":
            # writes through pointers degrade to writes to the pointed-at name
            inner = self.eval(target.operand)
            if isinstance(inner, ir.Var):
                self.emit(ir.Assign(line=line, dst=inner, src=value))
            return
        raise BuildError(f"line {line}: unsupported assignment target")

    def _stmt_IncDecStmt(self, stmt: ast.IncDecStmt) -> None:
        value = self.eval(stmt.target)
        if not isinstance(value, ir.Var):
            raise BuildError(f"line {stmt.line}: ++/-- target must be a variable")
        op = "+" if stmt.op == "++" else "-"
        self.emit(ir.BinOp(line=stmt.line, dst=value, op=op, left=value, right=ir.Const(1)))

    def _stmt_IfStmt(self, stmt: ast.IfStmt) -> None:
        cond = self.eval(stmt.cond)
        then_block = self.func.new_block("then")
        join_block = self.func.new_block("join")
        else_block = self.func.new_block("else") if stmt.orelse is not None else join_block
        branch = ir.CondJump(
            line=stmt.line,
            cond=cond,
            true_block=then_block,
            false_block=else_block,
            branch_info=self._branch_info(stmt.cond),
        )
        self.terminate(branch)
        self.block = then_block
        self.build_block(stmt.then)
        self.terminate(ir.Jump(line=stmt.then.end_line, target=join_block))
        if stmt.orelse is not None:
            self.block = else_block
            self.build_stmt(stmt.orelse)
            self.terminate(ir.Jump(line=stmt.line, target=join_block))
        self.block = join_block

    def _branch_info(self, cond: ast.Expr) -> Optional[ir.BranchCond]:
        """Extract ``var <op> const`` shape for infeasible-path pruning.

        The variable is recorded under its *unique register name* so path
        enumeration can decide read-only-ness by counting definitions.
        """
        if isinstance(cond, ast.Ident):
            return self._branch_cond(cond.name, "==", True)
        if isinstance(cond, ast.UnaryExpr) and cond.op == "!" and isinstance(cond.operand, ast.Ident):
            return self._branch_cond(cond.operand.name, "==", False)
        if isinstance(cond, ast.BinaryExpr) and cond.op in ("==", "!=", "<", "<=", ">", ">="):
            left, right, op = cond.left, cond.right, cond.op
            if isinstance(right, ast.Ident) and isinstance(left, (ast.IntLit, ast.BoolLit)):
                left, right = right, left
                op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
            if isinstance(left, ast.Ident):
                if isinstance(right, ast.IntLit):
                    return self._branch_cond(left.name, op, right.value)
                if isinstance(right, ast.BoolLit):
                    return self._branch_cond(left.name, op, right.value)
                if isinstance(right, ast.NilLit):
                    return self._branch_cond(left.name, op, None)
        return None

    def _branch_cond(self, source_name: str, op: str, const: object) -> Optional[ir.BranchCond]:
        unique = self.resolve(source_name)
        if unique is None:
            return None
        return ir.BranchCond(var=unique, op=op, const=const)

    def _stmt_ForStmt(self, stmt: ast.ForStmt) -> None:
        saved_scope = self.scope
        self.scope = _Scope(saved_scope)
        if stmt.init is not None:
            self.build_stmt(stmt.init)
        header = self.func.new_block("loop.head")
        body = self.func.new_block("loop.body")
        exit_block = self.func.new_block("loop.exit")
        post_block = self.func.new_block("loop.post") if stmt.post is not None else header
        self.terminate(ir.Jump(line=stmt.line, target=header))
        self.block = header
        if stmt.cond is not None:
            cond = self.eval(stmt.cond)
            self.terminate(
                ir.CondJump(
                    line=stmt.line,
                    cond=cond,
                    true_block=body,
                    false_block=exit_block,
                    branch_info=self._branch_info(stmt.cond),
                )
            )
        else:
            self.terminate(ir.Jump(line=stmt.line, target=body))
        self.loops.append(_LoopContext(continue_block=post_block, break_block=exit_block))
        self.block = body
        self.build_block(stmt.body)
        self.terminate(ir.Jump(line=stmt.body.end_line, target=post_block))
        self.loops.pop()
        if stmt.post is not None:
            self.block = post_block
            self.build_stmt(stmt.post)
            self.terminate(ir.Jump(line=stmt.line, target=header))
        self.block = exit_block
        self.scope = saved_scope

    def _stmt_RangeStmt(self, stmt: ast.RangeStmt) -> None:
        source = self.eval(stmt.source)
        kind = self.kind_of(source)
        if kind == "chan":
            self._build_chan_range(stmt, source)
        else:
            self._build_int_range(stmt, source)

    def _build_chan_range(self, stmt: ast.RangeStmt, chan: ir.Operand) -> None:
        saved_scope = self.scope
        self.scope = _Scope(saved_scope)
        header = self.func.new_block("range.head")
        body = self.func.new_block("range.body")
        exit_block = self.func.new_block("range.exit")
        self.terminate(ir.Jump(line=stmt.line, target=header))
        dst = self.declare(stmt.var, "any") if stmt.var != "_" else None
        header.terminate(
            ir.RangeNext(line=stmt.line, dst=dst, chan=chan, body=body, done=exit_block)
        )
        self.loops.append(_LoopContext(continue_block=header, break_block=exit_block))
        self.block = body
        self.build_block(stmt.body)
        self.terminate(ir.Jump(line=stmt.body.end_line, target=header))
        self.loops.pop()
        self.block = exit_block
        self.scope = saved_scope

    def _build_int_range(self, stmt: ast.RangeStmt, limit: ir.Operand) -> None:
        saved_scope = self.scope
        self.scope = _Scope(saved_scope)
        counter = self.declare(stmt.var, "int")
        self.emit(ir.Assign(line=stmt.line, dst=counter, src=ir.Const(0)))
        header = self.func.new_block("irange.head")
        body = self.func.new_block("irange.body")
        exit_block = self.func.new_block("irange.exit")
        self.terminate(ir.Jump(line=stmt.line, target=header))
        self.block = header
        cond = self.temp("bool")
        self.emit(ir.BinOp(line=stmt.line, dst=cond, op="<", left=counter, right=limit))
        self.terminate(
            ir.CondJump(line=stmt.line, cond=cond, true_block=body, false_block=exit_block)
        )
        self.loops.append(_LoopContext(continue_block=header, break_block=exit_block))
        self.block = body
        self.build_block(stmt.body)
        self.emit(ir.BinOp(line=stmt.body.end_line, dst=counter, op="+", left=counter, right=ir.Const(1)))
        self.terminate(ir.Jump(line=stmt.body.end_line, target=header))
        self.loops.pop()
        self.block = exit_block
        self.scope = saved_scope

    def _stmt_GoStmt(self, stmt: ast.GoStmt) -> None:
        func_op, args = self._callable_and_args(stmt.call)
        if func_op is None:
            raise BuildError(f"line {stmt.line}: cannot spawn builtin as goroutine")
        self.emit(ir.Go(line=stmt.line, func_op=func_op, args=args))

    def _stmt_DeferStmt(self, stmt: ast.DeferStmt) -> None:
        call = stmt.call
        # Builtin defers keep their operation kind visible to analyses.
        if isinstance(call.func, ast.Ident) and call.func.name == "close":
            chan = self.eval(call.args[0])
            self.emit(ir.Defer(line=stmt.line, func_op=ir.FuncRef(DEFER_CLOSE), args=[chan]))
            return
        if isinstance(call.func, ast.SelectorExpr):
            recv_kind, obj = self._method_receiver(call.func)
            name = call.func.name
            if recv_kind in _MUTEX_KINDS and name in ("Unlock", "RUnlock"):
                target = DEFER_RUNLOCK if name == "RUnlock" else DEFER_UNLOCK
                self.emit(ir.Defer(line=stmt.line, func_op=ir.FuncRef(target), args=[obj]))
                return
            if recv_kind in _MUTEX_KINDS and name in ("Lock", "RLock"):
                target = DEFER_RLOCK if name == "RLock" else DEFER_LOCK
                self.emit(ir.Defer(line=stmt.line, func_op=ir.FuncRef(target), args=[obj]))
                return
            if recv_kind == "waitgroup" and name == "Done":
                self.emit(ir.Defer(line=stmt.line, func_op=ir.FuncRef(DEFER_WG_DONE), args=[obj]))
                return
        func_op, args = self._callable_and_args(call)
        if func_op is None:
            raise BuildError(f"line {stmt.line}: cannot defer this builtin")
        self.emit(ir.Defer(line=stmt.line, func_op=func_op, args=args))

    def _stmt_ReturnStmt(self, stmt: ast.ReturnStmt) -> None:
        values = [self.eval(v) for v in stmt.values]
        self.terminate(ir.Return(line=stmt.line, values=values))

    def _stmt_BreakStmt(self, stmt: ast.BreakStmt) -> None:
        if not self.loops:
            raise BuildError(f"line {stmt.line}: break outside loop")
        self.terminate(ir.Jump(line=stmt.line, target=self.loops[-1].break_block))

    def _stmt_ContinueStmt(self, stmt: ast.ContinueStmt) -> None:
        if not self.loops:
            raise BuildError(f"line {stmt.line}: continue outside loop")
        self.terminate(ir.Jump(line=stmt.line, target=self.loops[-1].continue_block))

    def _stmt_SelectStmt(self, stmt: ast.SelectStmt) -> None:
        join = self.func.new_block("select.join")
        cases: List[ir.SelectCase] = []
        default_target: Optional[ir.Block] = None
        bodies: List[Tuple[ir.Block, List[ast.Stmt], List[Tuple[str, ir.Var]]]] = []
        for clause in stmt.cases:
            target = self.func.new_block("select.case")
            if clause.comm is None:
                default_target = target
                bodies.append((target, clause.body, []))
                continue
            case, bindings = self._lower_comm(clause.comm, target)
            cases.append(case)
            bodies.append((target, clause.body, bindings))
        self.terminate(ir.Select(line=stmt.line, cases=cases, default_target=default_target))
        for target, body_stmts, bindings in bodies:
            self.block = target
            saved = self.scope
            self.scope = _Scope(saved)
            for source_name, reg in bindings:
                self.scope.declare(source_name, reg.name)
            for inner in body_stmts:
                self.build_stmt(inner)
            self.terminate(ir.Jump(line=stmt.end_line, target=join))
            self.scope = saved
        self.block = join

    def _lower_comm(
        self, comm: ast.Stmt, target: ir.Block
    ) -> Tuple[ir.SelectCase, List[Tuple[str, ir.Var]]]:
        if isinstance(comm, ast.SendStmt):
            chan = self.eval(comm.chan)
            value = self.eval(comm.value)
            return (
                ir.SelectCase(kind="send", chan=chan, value=value, target=target, line=comm.line),
                [],
            )
        if isinstance(comm, ast.ExprStmt) and isinstance(comm.expr, ast.RecvExpr):
            chan = self.eval(comm.expr.chan)
            return (
                ir.SelectCase(kind="recv", chan=chan, target=target, line=comm.expr.line),
                [],
            )
        if isinstance(comm, ast.AssignStmt) and len(comm.rhs) == 1 and isinstance(comm.rhs[0], ast.RecvExpr):
            recv = comm.rhs[0]
            chan = self.eval(recv.chan)
            bindings: List[Tuple[str, ir.Var]] = []
            dst: Optional[ir.Var] = None
            ok_dst: Optional[ir.Var] = None
            names = [t.name if isinstance(t, ast.Ident) else "_" for t in comm.lhs]
            if names and names[0] != "_":
                dst = self._case_binding(names[0], "any")
                bindings.append((names[0], dst))
            if len(names) > 1 and names[1] != "_":
                ok_dst = self._case_binding(names[1], "bool")
                bindings.append((names[1], ok_dst))
            case = ir.SelectCase(
                kind="recv", chan=chan, dst=dst, ok_dst=ok_dst, target=target, line=recv.line
            )
            return case, bindings
        raise BuildError(f"line {comm.line}: unsupported select communication")

    def _case_binding(self, source_name: str, kind: str) -> ir.Var:
        unique = self.module.fresh_name(source_name)
        self.module.kinds[unique] = kind
        self.locals.add(unique)
        return ir.Var(unique)

    def _chan_elem_kind(self, chan: ir.Operand) -> str:
        kind = self.kind_of(chan)
        # element kinds are not tracked through channels; receives are 'any'
        return "any" if kind == "chan" else "any"

    # -- calls -------------------------------------------------------------

    def _method_receiver(self, sel: ast.SelectorExpr) -> Tuple[str, ir.Operand]:
        obj = self.eval(sel.recv)
        return self.kind_of(obj), obj

    def _callable_and_args(
        self, call: ast.CallExpr
    ) -> Tuple[Optional[ir.Operand], List[ir.Operand]]:
        """Evaluate a call's callee into an operand (None for builtins)."""
        func = call.func
        if isinstance(func, ast.FuncLit):
            lit_ref = self._lower_func_lit(func)
            return lit_ref, [self.eval(a) for a in call.args]
        if isinstance(func, ast.Ident):
            name = func.name
            if name in self.module.func_names:
                return ir.FuncRef(name), [self.eval(a) for a in call.args]
            unique = self.resolve(name)
            if unique is not None:
                return ir.Var(unique), [self.eval(a) for a in call.args]
            # undeclared plain function: external stub
            return ir.FuncRef(name), [self.eval(a) for a in call.args]
        if isinstance(func, ast.SelectorExpr):
            recv_kind, obj = self._method_receiver(func)
            if recv_kind.startswith("struct:"):
                struct_name = recv_kind.split(":", 1)[1]
                qualified = f"{struct_name}.{func.name}"
                if qualified in self.module.func_names:
                    return ir.FuncRef(qualified), [obj] + [self.eval(a) for a in call.args]
            return ir.MethodRef(func.name), [obj] + [self.eval(a) for a in call.args]
        raise BuildError(f"line {call.line}: unsupported callee expression")

    def build_call(self, call: ast.CallExpr, dsts: List[ir.Var]) -> Optional[ir.Operand]:
        """Lower a call; returns the result operand when one is requested."""
        func = call.func
        if isinstance(func, ast.Ident):
            builtin = self._try_builtin(func.name, call, dsts)
            if builtin is not _NOT_BUILTIN:
                return builtin
        if isinstance(func, ast.SelectorExpr):
            special = self._try_method(func, call, dsts)
            if special is not _NOT_BUILTIN:
                return special
        func_op, args = self._callable_and_args(call)
        instr = ir.Call(line=call.line, dsts=dsts, func_op=func_op, args=args)
        self.emit(instr)
        if isinstance(func_op, (ir.Var, ir.MethodRef)):
            self.func.dynamic_call_sites.append(instr)
        return dsts[0] if dsts else None

    def _try_builtin(self, name: str, call: ast.CallExpr, dsts: List[ir.Var]):
        line = call.line
        if name == "close":
            chan = self.eval(call.args[0])
            self.emit(ir.Close(line=line, chan=chan))
            return None
        if name == "panic":
            msg = self.eval(call.args[0]) if call.args else ir.Const("panic")
            self.terminate(ir.Panic(line=line, message=msg))
            return None
        if name in ("println", "print"):
            self.emit(ir.Println(line=line, args=[self.eval(a) for a in call.args]))
            return None
        if name == "len" or name == "cap":
            value = self.eval(call.args[0])
            dst = dsts[0] if dsts else self.temp("int")
            self.emit(ir.UnOp(line=line, dst=dst, op=name, operand=value))
            return dst
        return _NOT_BUILTIN

    def _try_method(self, sel: ast.SelectorExpr, call: ast.CallExpr, dsts: List[ir.Var]):
        line = call.line
        name = sel.name
        # time.Sleep(...)
        if isinstance(sel.recv, ast.Ident) and sel.recv.name == "time" and self.resolve("time") is None:
            if name == "Sleep":
                duration = self.eval(call.args[0]) if call.args else ir.Const(1)
                self.emit(ir.Sleep(line=line, duration=duration))
                return None
            return _NOT_BUILTIN
        # context.Background() / context.TODO() / context.WithCancel(...)
        if (
            isinstance(sel.recv, ast.Ident)
            and sel.recv.name == "context"
            and self.resolve("context") is None
        ):
            if name in ("Background", "TODO"):
                dst = dsts[0] if dsts else self.temp("context")
                self.module.kinds[dst.name] = "context"
                self.emit(ir.MakeContext(line=line, dst=dst))
                return dst
            if name == "WithCancel":
                ctx_dst = dsts[0] if dsts else self.temp("context")
                cancel_dst = dsts[1] if len(dsts) > 1 else self.temp("func")
                self.module.kinds[ctx_dst.name] = "context"
                self.module.kinds[cancel_dst.name] = "func"
                self.emit(ir.MakeContext(line=line, dst=ctx_dst, cancel_dst=cancel_dst))
                return ctx_dst
            return _NOT_BUILTIN
        recv_kind, obj = self._method_receiver(sel)
        if recv_kind in _MUTEX_KINDS:
            if name == "Lock":
                self.emit(ir.Lock(line=line, mutex=obj))
                return None
            if name == "Unlock":
                self.emit(ir.Unlock(line=line, mutex=obj))
                return None
            if name == "RLock":
                self.emit(ir.Lock(line=line, mutex=obj, read=True))
                return None
            if name == "RUnlock":
                self.emit(ir.Unlock(line=line, mutex=obj, read=True))
                return None
        if recv_kind == "waitgroup":
            if name == "Add":
                delta = self.eval(call.args[0]) if call.args else ir.Const(1)
                self.emit(ir.WgAdd(line=line, wg=obj, delta=delta))
                return None
            if name == "Done":
                self.emit(ir.WgDone(line=line, wg=obj))
                return None
            if name == "Wait":
                self.emit(ir.WgWait(line=line, wg=obj))
                return None
        if recv_kind == "cond":
            if name == "Wait":
                self.emit(ir.CondWait(line=line, cond=obj))
                return None
            if name == "Signal":
                self.emit(ir.CondSignal(line=line, cond=obj))
                return None
            if name == "Broadcast":
                self.emit(ir.CondSignal(line=line, cond=obj, broadcast=True))
                return None
        if recv_kind == "context" and name == "Done":
            dst = dsts[0] if dsts else self.temp("chan")
            self.emit(ir.CtxDone(line=line, dst=dst, ctx=obj))
            return dst
        if recv_kind == "context" and name == "Err":
            dst = dsts[0] if dsts else self.temp("int")
            self.emit(ir.Assign(line=line, dst=dst, src=ir.Const(1)))
            return dst
        if recv_kind == "testing":
            if name in ("Fatal", "Fatalf", "FailNow", "Skip", "SkipNow"):
                self.emit(ir.Fatal(line=line, testing=obj, method=name))
                self.terminate(ir.Return(line=line, values=[]))
                return None
            if name in ("Error", "Errorf", "Log", "Logf", "Fail"):
                self.emit(ir.Println(line=line, args=[self.eval(a) for a in call.args]))
                return None
        return _NOT_BUILTIN

    # -- expressions ---------------------------------------------------------

    def eval(self, expr: ast.Expr) -> ir.Operand:
        method = getattr(self, "_expr_" + type(expr).__name__, None)
        if method is None:
            raise BuildError(f"cannot lower expression {type(expr).__name__}")
        return method(expr)

    def _expr_IntLit(self, expr: ast.IntLit) -> ir.Operand:
        return ir.Const(expr.value)

    def _expr_StringLit(self, expr: ast.StringLit) -> ir.Operand:
        return ir.Const(expr.value)

    def _expr_BoolLit(self, expr: ast.BoolLit) -> ir.Operand:
        return ir.Const(expr.value)

    def _expr_NilLit(self, expr: ast.NilLit) -> ir.Operand:
        return ir.Const(None)

    def _expr_UnitLit(self, expr: ast.UnitLit) -> ir.Operand:
        return ir.Const(())

    def _expr_Ident(self, expr: ast.Ident) -> ir.Operand:
        unique = self.resolve(expr.name)
        if unique is not None:
            if unique not in self.locals and unique not in self.func.free_vars:
                self.func.free_vars.append(unique)
            return ir.Var(unique)
        if expr.name in self.module.func_names:
            return ir.FuncRef(expr.name)
        raise BuildError(f"line {expr.line}: undefined name {expr.name!r}")

    def _expr_UnaryExpr(self, expr: ast.UnaryExpr) -> ir.Operand:
        if expr.op in ("&", "*"):
            # pointers are transparent in MiniGo
            return self.eval(expr.operand)
        operand = self.eval(expr.operand)
        dst = self.temp("bool" if expr.op == "!" else "int")
        self.emit(ir.UnOp(line=expr.line, dst=dst, op=expr.op, operand=operand))
        return dst

    def _expr_BinaryExpr(self, expr: ast.BinaryExpr) -> ir.Operand:
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        kind = "bool" if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||") else "int"
        dst = self.temp(kind)
        self.emit(ir.BinOp(line=expr.line, dst=dst, op=expr.op, left=left, right=right))
        return dst

    def _expr_RecvExpr(self, expr: ast.RecvExpr) -> ir.Operand:
        chan = self.eval(expr.chan)
        dst = self.temp("any")
        self.emit(ir.Recv(line=expr.line, dst=dst, ok_dst=None, chan=chan))
        return dst

    def _expr_MakeExpr(self, expr: ast.MakeExpr) -> ir.Operand:
        size = self.eval(expr.size) if expr.size is not None else ir.Const(0)
        if isinstance(expr.type, ast.ChanType):
            dst = self.temp("chan")
            self.emit(
                ir.MakeChan(line=expr.line, dst=dst, elem_type=kind_of_type(expr.type.elem), size=size)
            )
            return dst
        if isinstance(expr.type, ast.SliceType):
            dst = self.temp("slice:" + kind_of_type(expr.type.elem))
            self.emit(
                ir.MakeSlice(line=expr.line, dst=dst, elem_type=kind_of_type(expr.type.elem), size=size)
            )
            return dst
        raise BuildError(f"line {expr.line}: make() supports chan and slice types")

    def _expr_CallExpr(self, expr: ast.CallExpr) -> ir.Operand:
        dst = self.temp("any")
        result = self.build_call(expr, dsts=[dst])
        if result is None:
            return ir.Const(None)
        if isinstance(result, ir.Var) and result.name != dst.name:
            return result
        return result

    def _expr_SelectorExpr(self, expr: ast.SelectorExpr) -> ir.Operand:
        obj = self.eval(expr.recv)
        kind = self.kind_of(obj)
        field_kind = "any"
        if kind.startswith("struct:"):
            field_kind = self.module.field_kind(kind.split(":", 1)[1], expr.name)
        dst = self.temp(field_kind)
        self.emit(ir.FieldGet(line=expr.line, dst=dst, obj=obj, field_name=expr.name))
        return dst

    def _expr_IndexExpr(self, expr: ast.IndexExpr) -> ir.Operand:
        seq = self.eval(expr.seq)
        index = self.eval(expr.index)
        seq_kind = self.kind_of(seq)
        elem_kind = seq_kind.split(":", 1)[1] if seq_kind.startswith("slice:") else "any"
        dst = self.temp(elem_kind)
        self.emit(ir.IndexGet(line=expr.line, dst=dst, seq=seq, index=index))
        return dst

    def _expr_CompositeLit(self, expr: ast.CompositeLit) -> ir.Operand:
        fields = [(name, self.eval(value)) for name, value in expr.fields]
        explicit = {name for name, _ in fields}
        fields.extend(
            (name, op)
            for name, op in self._default_struct_fields(expr.type_name, expr.line)
            if name not in explicit
        )
        dst = self.temp("struct:" + expr.type_name)
        self.emit(ir.MakeStruct(line=expr.line, dst=dst, type_name=expr.type_name, fields=fields))
        return dst

    def _default_struct_fields(self, type_name: str, line: int) -> List[Tuple[str, ir.Operand]]:
        """Materialize usable zero values for sync-typed struct fields.

        Go's sync.Mutex/RWMutex/WaitGroup zero values are ready to use, so a
        struct literal implicitly creates those primitives; they need real
        creation sites for the alias analysis and the runtime.
        """
        out: List[Tuple[str, ir.Operand]] = []
        for name, kind in self.module.struct_fields.get(type_name, ()):
            if kind in _MUTEX_KINDS:
                tmp = self._hidden_var(f"{type_name}.{name}", kind)
                self.emit(ir.MakeMutex(line=line, dst=tmp, rw=kind == "rwmutex"))
                out.append((name, tmp))
            elif kind == "waitgroup":
                tmp = self._hidden_var(f"{type_name}.{name}", "waitgroup")
                self.emit(ir.MakeWaitGroup(line=line, dst=tmp))
                out.append((name, tmp))
        return out

    def _hidden_var(self, base: str, kind: str) -> ir.Var:
        """A named register outside any source scope (for field primitives)."""
        name = self.module.fresh_name(base)
        self.module.kinds[name] = kind
        self.locals.add(name)
        return ir.Var(name)

    def _expr_FuncLit(self, expr: ast.FuncLit) -> ir.Operand:
        return self._lower_func_lit(expr)

    def _lower_func_lit(self, lit: ast.FuncLit) -> ir.FuncRef:
        self._lit_counter += 1
        name = f"{self.func.name}$lit{self._lit_counter}"
        self.module.lower_function(
            name,
            params=lit.params,
            results=lit.results,
            body=lit.body,
            decl_line=lit.line,
            receiver=None,
            parent_scope=self.scope,
            parent_func=self.func,
        )
        return ir.FuncRef(name)


_NOT_BUILTIN = object()


def _zero_value(kind: str):
    if kind == "int":
        return 0
    if kind == "bool":
        return False
    if kind == "string":
        return ""
    return None


class DeclLowering(NamedTuple):
    """What lowering one top-level declaration drew and produced."""

    decl: ast.FuncDecl
    #: (base, its counter at the first draw, the number of draws) for each
    #: name base drawn through :meth:`ModuleBuilder.fresh_name`
    draws: Tuple[Tuple[str, int, int], ...]
    #: the declaration's function and its function literals, in the order
    #: they were added
    functions: Tuple[ir.Function, ...]
    #: its registers' kinds, in the order they were first set
    kinds: Tuple[Tuple[str, str], ...]


class Lowering(NamedTuple):
    """One build's :class:`DeclLowering` per declaration, keyed by the
    declaration's identity, plus the program context every lowering read:
    the function-name set and each struct's field names and kinds.

    Lowering a declaration reads only its AST, that context and the name
    counters of the bases it draws, and every register it names or gives
    a kind belongs to it (MiniGo has no globals). So a later build whose
    context compares equal reuses a declaration that is the same AST
    object when every base it drew starts at the recorded count: its
    functions, kinds and counter advances are exactly what lowering it
    again would give.
    """

    func_names: Set[str]
    struct_fields: Dict[str, Tuple[Tuple[str, str], ...]]
    decls: Dict[int, DeclLowering]


class ModuleBuilder:
    """Builds a whole :class:`repro.ssa.ir.Program` from a parsed file.

    ``build`` records each declaration's lowering in ``lowering``; given
    the ``previous`` record of an earlier build of the same project, it
    reuses every declaration whose lowering inputs are unchanged (see
    :class:`Lowering`). ``lowered`` and ``reused`` count functions,
    function literals included.
    """

    def __init__(self, file: ast.File, previous: Optional[Lowering] = None):
        self.file = file
        self.functions: Dict[str, ir.Function] = {}
        # unique register name -> kind, for the declaration being lowered:
        # its lowering reads and writes only its own registers
        self.kinds: Dict[str, str] = {}
        self.func_names = {decl.full_name for decl in file.funcs}
        # struct name -> its fields' names and kinds: all lowering reads of
        # a struct declaration
        self.struct_fields: Dict[str, Tuple[Tuple[str, str], ...]] = {
            decl.name: tuple((f.name, kind_of_type(f.type)) for f in decl.fields)
            for decl in file.structs
        }
        self._name_counter: Dict[str, int] = {}
        # base -> its counter at the current declaration's first draw
        self._first_draw: Dict[str, int] = {}
        self._added: List[ir.Function] = []
        self.lowering = Lowering(self.func_names, self.struct_fields, {})
        same_context = (
            previous is not None
            and previous.func_names == self.func_names
            and previous.struct_fields == self.struct_fields
        )
        self._previous: Dict[int, DeclLowering] = previous.decls if same_context else {}
        self.lowered = 0
        self.reused = 0

    def fresh_name(self, base: str) -> str:
        count = self._name_counter.get(base, 0)
        self._name_counter[base] = count + 1
        self._first_draw.setdefault(base, count)
        return base if count == 0 else f"{base}${count}"

    def field_kind(self, struct_name: str, field_name: str) -> str:
        for name, kind in self.struct_fields.get(struct_name, ()):
            if name == field_name:
                return kind
        return "any"

    def build(self) -> ir.Program:
        program = ir.Program(self.file, self.functions)
        for decl in self.file.funcs:
            record = self._previous.get(id(decl))
            if record is not None and record.decl is decl and all(
                self._name_counter.get(base, 0) == start for base, start, _ in record.draws
            ):
                self._reuse(record)
            else:
                record = self._lower_decl(decl)
            self.lowering.decls[id(decl)] = record
            program.kinds.update(record.kinds)
        return program

    def _reuse(self, record: DeclLowering) -> None:
        for base, start, count in record.draws:
            self._name_counter[base] = start + count
        for func in record.functions:
            self.functions[func.name] = func
        self.reused += len(record.functions)

    def _lower_decl(self, decl: ast.FuncDecl) -> DeclLowering:
        self.kinds = {}
        self._first_draw = {}
        self._added = []
        self.lower_function(
            decl.full_name,
            params=([decl.receiver] if decl.receiver else []) + decl.params,
            results=decl.results,
            body=decl.body,
            decl_line=decl.line,
            receiver=decl.receiver,
            parent_scope=None,
            parent_func=None,
        )
        self.lowered += len(self._added)
        return DeclLowering(
            decl,
            draws=tuple(
                (base, start, self._name_counter[base] - start)
                for base, start in self._first_draw.items()
            ),
            functions=tuple(self._added),
            kinds=tuple(self.kinds.items()),
        )

    def lower_function(
        self,
        name: str,
        params: List[ast.Param],
        results: List[ast.Type],
        body: ast.Block,
        decl_line: int,
        receiver: Optional[ast.Param],
        parent_scope: Optional[_Scope],
        parent_func: Optional[ir.Function],
    ) -> ir.Function:
        param_uniques: List[str] = []
        scope = _Scope(parent_scope)
        locals_set: set = set()
        func = ir.Function(
            name,
            params=[],
            result_count=len(results),
            decl_line=decl_line,
            is_closure=parent_scope is not None,
            parent=parent_func,
        )
        self.functions[name] = func
        self._added.append(func)
        for param in params:
            unique = self.fresh_name(param.name if param.name != "_" else "arg")
            scope.declare(param.name, unique)
            self.kinds[unique] = kind_of_type(param.type)
            param_uniques.append(unique)
            locals_set.add(unique)
        func.params = param_uniques
        func.local_names = locals_set
        builder = _FunctionBuilder(self, func, scope, locals_set)
        builder.build_block(body)
        builder.terminate(ir.Return(line=body.end_line, values=[]))
        return func


def _lower(file: ast.File, obs, previous: Optional[Lowering]) -> Tuple[ir.Program, Lowering]:
    """The ``ssa-build`` stage: lower ``file``, counting the functions
    lowered and reused beside the span."""
    from repro.obs import STAGE_SSA
    from repro.resilience.faultinject import maybe_fault

    with obs.span(STAGE_SSA):
        maybe_fault(STAGE_SSA, file.filename)
        builder = ModuleBuilder(file, previous)
        program = builder.build()
    obs.count("ssa.lowered", builder.lowered)
    obs.count("ssa.reused", builder.reused)
    return program, builder.lowering


def build_program(source: str, filename: str = "<minigo>", collector=None) -> ir.Program:
    """Parse and lower MiniGo ``source`` into an IR :class:`Program`.

    ``collector`` (a :class:`repro.obs.Collector`) receives the ``parse``
    and ``ssa-build`` stage spans of the pipeline trace.
    """
    from repro.obs import NULL, STAGE_PARSE

    obs = collector or NULL
    with obs.span(STAGE_PARSE):
        file = parse_source_file(source, filename)
    return lower_files([file], obs)[0]


def parse_source_file(source: str, filename: str = "<minigo>") -> ast.File:
    """Parse one MiniGo source file into its AST.

    This is the per-file granularity the incremental service re-parses at:
    an edit to one file of a project re-runs only this function for that
    file; the lowered program is then rebuilt from the (mostly cached)
    ASTs via :func:`lower_files`, which reuses every declaration whose
    lowering inputs are unchanged.
    """
    return parse_file(source, filename)


def merge_files(files: List[ast.File]) -> ast.File:
    """Merge several parsed files into one compilation unit.

    MiniGo follows Go's package model: all files of a project share one
    namespace, so merging is declaration concatenation in file order.
    Struct and function declarations keep the line numbers of their own
    source file (bug reports cite ``file:line`` through the declaring
    function). A struct, function or method (``T.m``) declared twice,
    in one file or in two, is a :class:`BuildError` naming both places,
    mirroring Go's redeclaration error. Every build passes through here,
    a one-file :func:`build_program` too.
    """
    if not files:
        raise BuildError("a project needs at least one source file")
    merged = ast.File(
        package=files[0].package,
        filename=files[0].filename if len(files) == 1 else "<project>",
        source=files[0].source if len(files) == 1 else "",
    )
    # "type S" / "func T.m" -> (filename, line) of its first declaration
    seen: Dict[str, Tuple[str, int]] = {}

    def declare(what: str, file: ast.File, decl: ast.Node) -> None:
        if what in seen:
            filename, line = seen[what]
            raise BuildError(
                f"{what} redeclared at {file.filename}:{decl.line} "
                f"(previous declaration at {filename}:{line})"
            )
        seen[what] = (file.filename, decl.line)

    for file in files:
        for decl in file.structs:
            declare("type " + decl.name, file, decl)
            merged.structs.append(decl)
        for decl in file.funcs:
            declare("func " + decl.full_name, file, decl)
            merged.funcs.append(decl)
    return merged


def build_program_from_files(files: List[ast.File], collector=None) -> ir.Program:
    """Lower already-parsed files into one IR :class:`Program`.

    The parse stage is the caller's (so a warm AST cache pays nothing
    here); only the ``ssa-build`` span runs.
    """
    return lower_files(files, collector)[0]


def lower_files(
    files: List[ast.File], collector=None, previous: Optional[Lowering] = None
) -> Tuple[ir.Program, Lowering]:
    """:func:`build_program_from_files`, also returning the build's
    :class:`Lowering`. Given the ``previous`` build's record, every
    declaration whose lowering inputs are unchanged is reused instead of
    lowered again; the program is the one a fresh build gives."""
    from repro.obs import NULL

    return _lower(merge_files(files), collector or NULL, previous)
