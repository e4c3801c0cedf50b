"""AST -> MiniGo source printer, for the round-trip tests only.

The inverse of the parser: ``tests/test_printer.py``,
``tests/test_fuzz_roundtrip.py`` and ``tests/test_fuzz_engine.py`` check
that printing a parse and parsing it again is a fixpoint. The package
itself never prints an AST (the fuzz generator renders source from
templates, and the minimizer shrinks recipes), so this lives beside the
tests, as ``tests/lexer_oracle.py`` does. Output follows gofmt
conventions: tab indentation, one statement per line, ``else`` on the
closing-brace line.
"""

from __future__ import annotations

from typing import List

from repro.golang import ast_nodes as ast


class Printer:
    def __init__(self):
        self._lines: List[str] = []
        self._indent = 0

    # -- emit helpers -------------------------------------------------------

    def _line(self, text: str) -> None:
        self._lines.append("\t" * self._indent + text)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"

    # -- file ---------------------------------------------------------------

    def print_file(self, file: ast.File) -> str:
        self._line(f"package {file.package}")
        for struct in file.structs:
            self._line("")
            self.print_struct(struct)
        for func in file.funcs:
            self._line("")
            self.print_func(func)
        return self.render()

    def print_struct(self, decl: ast.StructDecl) -> None:
        self._line(f"type {decl.name} struct {{")
        self._indent += 1
        for field in decl.fields:
            self._line(f"{field.name} {self.type_str(field.type)}")
        self._indent -= 1
        self._line("}")

    def print_func(self, decl: ast.FuncDecl) -> None:
        receiver = ""
        if decl.receiver is not None:
            receiver = f"({decl.receiver.name} {self.type_str(decl.receiver.type)}) "
        params = ", ".join(f"{p.name} {self.type_str(p.type)}" for p in decl.params)
        results = self._results_str(decl.results)
        self._line(f"func {receiver}{decl.name}({params}){results} {{")
        self._indent += 1
        for stmt in decl.body.stmts:
            self.print_stmt(stmt)
        self._indent -= 1
        self._line("}")

    def _results_str(self, results: List[ast.Type]) -> str:
        if not results:
            return ""
        if len(results) == 1:
            return " " + self.type_str(results[0])
        return " (" + ", ".join(self.type_str(t) for t in results) + ")"

    # -- types ----------------------------------------------------------------

    def type_str(self, typ: ast.Type) -> str:
        if isinstance(typ, ast.NamedType):
            reverse = {
                "mutex": "sync.Mutex",
                "rwmutex": "sync.RWMutex",
                "waitgroup": "sync.WaitGroup",
                "cond": "sync.Cond",
                "context": "context.Context",
                "testing": "testing.T",
                "unit": "struct{}",
                "buffer": "bytes.Buffer",
            }
            return reverse.get(typ.name, typ.name)
        if isinstance(typ, ast.ChanType):
            return f"chan {self.type_str(typ.elem)}"
        if isinstance(typ, ast.SliceType):
            return f"[]{self.type_str(typ.elem)}"
        if isinstance(typ, ast.PointerType):
            return f"*{self.type_str(typ.elem)}"
        if isinstance(typ, ast.FuncType):
            params = ", ".join(f"{p.name} {self.type_str(p.type)}" for p in typ.params)
            return f"func({params}){self._results_str(typ.results)}"
        raise TypeError(f"cannot print type {type(typ).__name__}")

    # -- statements --------------------------------------------------------------

    def print_stmt(self, stmt: ast.Stmt) -> None:
        method = getattr(self, "_stmt_" + type(stmt).__name__, None)
        if method is None:
            raise TypeError(f"cannot print statement {type(stmt).__name__}")
        method(stmt)

    def _stmt_Block(self, stmt: ast.Block) -> None:
        self._line("{")
        self._indent += 1
        for inner in stmt.stmts:
            self.print_stmt(inner)
        self._indent -= 1
        self._line("}")

    def _stmt_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        self._line(self.expr_str(stmt.expr))

    def _stmt_SendStmt(self, stmt: ast.SendStmt) -> None:
        self._line(f"{self.expr_str(stmt.chan)} <- {self.expr_str(stmt.value)}")

    def _stmt_AssignStmt(self, stmt: ast.AssignStmt) -> None:
        op = ":=" if stmt.is_decl else "="
        lhs = ", ".join(self.expr_str(e) for e in stmt.lhs)
        rhs = ", ".join(self.expr_str(e) for e in stmt.rhs)
        self._line(f"{lhs} {op} {rhs}")

    def _stmt_VarDecl(self, stmt: ast.VarDecl) -> None:
        if stmt.type is not None and stmt.value is None:
            self._line(f"var {stmt.name} {self.type_str(stmt.type)}")
        elif stmt.type is not None:
            self._line(
                f"var {stmt.name} {self.type_str(stmt.type)} = {self.expr_str(stmt.value)}"
            )
        else:
            self._line(f"var {stmt.name} = {self.expr_str(stmt.value)}")

    def _stmt_IncDecStmt(self, stmt: ast.IncDecStmt) -> None:
        self._line(f"{self.expr_str(stmt.target)}{stmt.op}")

    def _stmt_IfStmt(self, stmt: ast.IfStmt) -> None:
        self._print_if(stmt, prefix="if ")

    def _print_if(self, stmt: ast.IfStmt, prefix: str) -> None:
        self._line(f"{prefix}{self.expr_str(stmt.cond)} {{")
        self._indent += 1
        for inner in stmt.then.stmts:
            self.print_stmt(inner)
        self._indent -= 1
        if stmt.orelse is None:
            self._line("}")
            return
        if isinstance(stmt.orelse, ast.IfStmt):
            # fold `} else if cond {` onto one line
            self._line_join_else()
            self._print_if(stmt.orelse, prefix="} else if ")
            return
        self._line("} else {")
        self._indent += 1
        for inner in stmt.orelse.stmts:
            self.print_stmt(inner)
        self._indent -= 1
        self._line("}")

    def _line_join_else(self) -> None:
        pass  # handled by the '} else if' prefix

    def _stmt_ForStmt(self, stmt: ast.ForStmt) -> None:
        header = "for"
        if stmt.init is not None or stmt.post is not None:
            init = self._inline_stmt(stmt.init) if stmt.init else ""
            cond = self.expr_str(stmt.cond) if stmt.cond else ""
            post = self._inline_stmt(stmt.post) if stmt.post else ""
            header = f"for {init}; {cond}; {post}"
        elif stmt.cond is not None:
            header = f"for {self.expr_str(stmt.cond)}"
        self._line(header + " {")
        self._indent += 1
        for inner in stmt.body.stmts:
            self.print_stmt(inner)
        self._indent -= 1
        self._line("}")

    def _inline_stmt(self, stmt: ast.Stmt) -> str:
        if isinstance(stmt, ast.AssignStmt):
            op = ":=" if stmt.is_decl else "="
            lhs = ", ".join(self.expr_str(e) for e in stmt.lhs)
            rhs = ", ".join(self.expr_str(e) for e in stmt.rhs)
            return f"{lhs} {op} {rhs}"
        if isinstance(stmt, ast.IncDecStmt):
            return f"{self.expr_str(stmt.target)}{stmt.op}"
        if isinstance(stmt, ast.ExprStmt):
            return self.expr_str(stmt.expr)
        raise TypeError(f"cannot inline statement {type(stmt).__name__}")

    def _stmt_RangeStmt(self, stmt: ast.RangeStmt) -> None:
        if stmt.var == "_":
            self._line(f"for range {self.expr_str(stmt.source)} {{")
        else:
            self._line(f"for {stmt.var} := range {self.expr_str(stmt.source)} {{")
        self._indent += 1
        for inner in stmt.body.stmts:
            self.print_stmt(inner)
        self._indent -= 1
        self._line("}")

    def _stmt_GoStmt(self, stmt: ast.GoStmt) -> None:
        self._print_call_stmt("go ", stmt.call)

    def _stmt_DeferStmt(self, stmt: ast.DeferStmt) -> None:
        self._print_call_stmt("defer ", stmt.call)

    def _print_call_stmt(self, keyword: str, call: ast.CallExpr) -> None:
        if isinstance(call.func, ast.FuncLit):
            params = ", ".join(
                f"{p.name} {self.type_str(p.type)}" for p in call.func.params
            )
            self._line(f"{keyword}func({params}){self._results_str(call.func.results)} {{")
            self._indent += 1
            for inner in call.func.body.stmts:
                self.print_stmt(inner)
            self._indent -= 1
            args = ", ".join(self.expr_str(a) for a in call.args)
            self._line(f"}}({args})")
            return
        self._line(keyword + self.expr_str(call))

    def _stmt_ReturnStmt(self, stmt: ast.ReturnStmt) -> None:
        if stmt.values:
            self._line("return " + ", ".join(self.expr_str(v) for v in stmt.values))
        else:
            self._line("return")

    def _stmt_BreakStmt(self, stmt: ast.BreakStmt) -> None:
        self._line("break")

    def _stmt_ContinueStmt(self, stmt: ast.ContinueStmt) -> None:
        self._line("continue")

    def _stmt_SelectStmt(self, stmt: ast.SelectStmt) -> None:
        self._line("select {")
        for clause in stmt.cases:
            if clause.comm is None:
                self._line("default:")
            else:
                self._line(f"case {self._inline_comm(clause.comm)}:")
            self._indent += 1
            for inner in clause.body:
                self.print_stmt(inner)
            self._indent -= 1
        self._line("}")

    def _inline_comm(self, comm: ast.Stmt) -> str:
        if isinstance(comm, ast.SendStmt):
            return f"{self.expr_str(comm.chan)} <- {self.expr_str(comm.value)}"
        if isinstance(comm, ast.ExprStmt):
            return self.expr_str(comm.expr)
        if isinstance(comm, ast.AssignStmt):
            return self._inline_stmt(comm)
        raise TypeError(f"cannot print comm clause {type(comm).__name__}")

    # -- expressions ---------------------------------------------------------------

    def expr_str(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.Ident):
            return expr.name
        if isinstance(expr, ast.IntLit):
            return str(expr.value)
        if isinstance(expr, ast.StringLit):
            escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            return f'"{escaped}"'
        if isinstance(expr, ast.BoolLit):
            return "true" if expr.value else "false"
        if isinstance(expr, ast.NilLit):
            return "nil"
        if isinstance(expr, ast.UnitLit):
            return "struct{}{}"
        if isinstance(expr, ast.UnaryExpr):
            return f"{expr.op}{self._maybe_paren(expr.operand)}"
        if isinstance(expr, ast.BinaryExpr):
            left = self._maybe_paren(expr.left)
            right = self._maybe_paren(expr.right)
            return f"{left} {expr.op} {right}"
        if isinstance(expr, ast.RecvExpr):
            return f"<-{self._maybe_paren(expr.chan)}"
        if isinstance(expr, ast.CallExpr):
            args = ", ".join(self.expr_str(a) for a in expr.args)
            return f"{self.expr_str(expr.func)}({args})"
        if isinstance(expr, ast.SelectorExpr):
            return f"{self._maybe_paren(expr.recv)}.{expr.name}"
        if isinstance(expr, ast.IndexExpr):
            return f"{self._maybe_paren(expr.seq)}[{self.expr_str(expr.index)}]"
        if isinstance(expr, ast.MakeExpr):
            if expr.size is not None:
                return f"make({self.type_str(expr.type)}, {self.expr_str(expr.size)})"
            return f"make({self.type_str(expr.type)})"
        if isinstance(expr, ast.CompositeLit):
            fields = ", ".join(f"{n}: {self.expr_str(v)}" for n, v in expr.fields)
            return f"{expr.type_name}{{{fields}}}"
        if isinstance(expr, ast.FuncLit):
            raise TypeError("function literals print only as statements")
        raise TypeError(f"cannot print expression {type(expr).__name__}")

    def _maybe_paren(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.BinaryExpr):
            return f"({self.expr_str(expr)})"
        return self.expr_str(expr)


def print_file(file: ast.File) -> str:
    """Render a parsed MiniGo file back to source text."""
    return Printer().print_file(file)
