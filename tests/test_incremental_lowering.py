"""A daemon's incremental lowering equals a fresh build.

A refresh hands the builder the previous generation's per-declaration
lowering record (:class:`repro.ssa.builder.Lowering`) and reuses every
declaration whose lowering inputs are unchanged: the same AST object, the
same function-name set and struct fields, and the same name counters for
every base it draws. These tests hold each daemon generation to a fresh
``build_program_from_files`` of the same files: the same functions in the
same order, each with the same parameters, free variables, locals, result
count, line, closure flag and digest, and the same register kinds as
ordered items. The daemon's reports must equal a one-shot
``Project.from_path(dir).detect()``, and the ``ssa.reused`` counts are
pinned, so a change that silently stops reusing fails.

The edit sequence is built so that each reuse condition decides some
step: a temporary drawn at the top of a file renumbers the ``t``
registers of every later declaration that draws one; a new method turns
an unchanged caller's dynamic call into a static one; a new mutex field
gives an unchanged composite literal a mutex to create.
"""

from __future__ import annotations

import random
import re
from typing import Callable, Dict, List, Optional

import pytest

from repro.api import Project
from repro.corpus.apps import build_corpus
from repro.detector.gcatch import run_gcatch
from repro.engine.fingerprint import function_digest
from repro.service import AnalysisService
from repro.service.project import project_source_paths
from repro.ssa import ir
from repro.ssa.builder import build_program_from_files, parse_source_file
from tests.conftest import build, split_app_files, split_docker_files

CHANNEL = re.compile(r"make\(chan ([^,()]+?)(?:, *[^)]*)?\)")
FUNC_LINE = re.compile(r"^func [^\n]*\{\n", re.M)
DECL_NAME = re.compile(r"^func (?:\(\w+ \*?(\w+)\) )?(\w+)", re.M)


def fresh_program(root) -> ir.Program:
    files = []
    for path in project_source_paths(str(root)):
        with open(path) as handle:
            files.append(parse_source_file(handle.read(), path))
    return build_program_from_files(files)


def program_view(program: ir.Program) -> dict:
    """Everything a reused program must share with a fresh build."""
    return {
        "functions": [
            (
                name,
                list(fn.params),
                list(fn.free_vars),
                sorted(fn.local_names),
                fn.result_count,
                fn.decl_line,
                fn.is_closure,
                function_digest(fn),
            )
            for name, fn in program.functions.items()
        ],
        "kinds": list(program.kinds.items()),
    }


def renders(result) -> List[str]:
    return sorted(r.render() for r in result.all_reports())


def daemon_renders(payload: dict) -> List[str]:
    return sorted(r["render"] for r in payload["reports"])


def decl_names(text: str) -> List[str]:
    return [f"{recv}.{name}" if recv else name for recv, name in DECL_NAME.findall(text)]


def functions_of(program: ir.Program, text: str) -> List[str]:
    """The functions a file's declarations lower to, literals included."""
    names = set(decl_names(text))
    return [name for name in program.functions if name.split("$")[0] in names]


# -- edits: each takes a file's text and returns the edited text --------------


def buffer_edit(text: str, size: int = 1) -> str:
    """The ``daemon-edit-loop`` edit: the first channel gets a buffer,
    an integer literal that draws no register."""
    match = CHANNEL.search(text)
    return text[: match.start()] + f"make(chan {match.group(1)}, {size})" + text[match.end():]


def temp_edit(text: str, index: int = 0) -> str:
    """``println(1 + 2)`` at the top of the file's ``index``-th function:
    the sum draws one ``t`` register."""
    match = list(FUNC_LINE.finditer(text))[index]
    return text[: match.end()] + "\tprintln(1 + 2)\n" + text[match.end():]


def append_edit(decl: str) -> Callable[[str], str]:
    return lambda text: text + "\n" + decl


def undefined_edit(text: str) -> str:
    match = FUNC_LINE.search(text)
    return text[: match.end()] + "\tprintln(noSuchName)\n" + text[match.end():]


def struct_field_edit(struct: str, field: str) -> Callable[[str], str]:
    def edit(text: str) -> str:
        head = f"type {struct} struct {{\n"
        return text.replace(head, head + f"\t{field}\n", 1)

    return edit


class Daemon:
    """An in-process daemon on a project directory, with its counters."""

    def __init__(self, root):
        self.root = root
        self.service = AnalysisService(str(root), workers=1)
        self.counters = self.service.collector.counters
        self.before: Dict[str, int] = {}

    def __enter__(self) -> "Daemon":
        self.service.start()
        return self

    def __exit__(self, *exc) -> None:
        self.service.stop()

    def detect(self) -> dict:
        response = self.service.call("detect")
        assert "error" not in response, response
        return response["result"]

    def work(self) -> Dict[str, int]:
        """The lowering work since the previous call."""
        now = dict(self.counters)
        work = {
            key: now.get(name, 0) - self.before.get(name, 0)
            for key, name in (
                ("lowered", "ssa.lowered"),
                ("reused", "ssa.reused"),
                ("digests", "fingerprint.digests"),
            )
        }
        self.before = now
        return work

    def check_fresh(self) -> None:
        """The resident program and its digests equal a fresh build's."""
        state = self.service.state
        want = fresh_program(self.root)
        assert program_view(state.program) == program_view(want)
        assert state.digests == {
            name: function_digest(fn) for name, fn in want.functions.items()
        }


def write(root, files: Dict[str, str]) -> None:
    for name, text in files.items():
        (root / name).write_text(text)


#: the split-Docker sequence: (label, file, edit, functions reused)
DOCKER_EDITS = [
    ("buffer", "inst_000.go", buffer_edit, 376),
    ("temp in the first file", "inst_000.go", temp_edit, 130),
    ("temp in a middle file", "inst_052.go", temp_edit, 250),
    ("temp in the last file", "main.go", temp_edit, 379),
    # a caller in main.go of a method that does not exist yet: lowered as
    # a dynamic call, and reused until the method arrives
    ("new function", "main.go", append_edit(
        "func useExtra() {\n\tv := alphaNDocker52{}\n\tv.Extra()\n\tprintln(v.pad)\n}\n"
    ), 0),
    ("new method", "inst_051.go", append_edit(
        "func (x *alphaNDocker52) Extra() {\n\tprintln(1)\n}\n"
    ), 0),
    ("new struct field", "inst_051.go", struct_field_edit("alphaNDocker52", "mu sync.Mutex"), 0),
    ("delete", "inst_020.go", None, 0),
    ("restore", "inst_020.go", "restore", 0),
]


class TestReuseEqualsFreshBuild:
    def test_split_docker_edit_sequence(self, tmp_path):
        files = split_docker_files()
        write(tmp_path, files)
        with Daemon(tmp_path) as daemon:
            cold = daemon.detect()
            assert daemon.work() == {"lowered": 380, "reused": 0, "digests": 380}
            daemon.check_fresh()
            assert daemon_renders(cold) == renders(Project.from_path(str(tmp_path)).detect())
            steps = []
            for label, name, edit, _ in DOCKER_EDITS:
                if edit is None:
                    (tmp_path / name).unlink()
                elif edit == "restore":
                    (tmp_path / name).write_text(files[name])
                else:
                    files[name] = edit(files[name])
                    (tmp_path / name).write_text(files[name])
                result = daemon.detect()
                assert "failed" not in result["refresh"], label
                work = daemon.work()
                steps.append((label, work["reused"]))
                total = len(daemon.service.state.program.functions)
                assert work["lowered"] + work["reused"] == total, label
                assert work["digests"] == work["lowered"], label
                daemon.check_fresh()
                one_shot = renders(Project.from_path(str(tmp_path)).detect())
                assert daemon_renders(result) == one_shot, label
            assert steps == [(label, reused) for label, _, _, reused in DOCKER_EDITS]

            # an undefined name fails the build: the last good generation
            # keeps serving, with an incident
            generation = daemon.service.state.generation
            good = files["inst_030.go"]
            (tmp_path / "inst_030.go").write_text(undefined_edit(good))
            broken = daemon.detect()
            assert broken["refresh"]["failed"] is True
            assert "undefined name" in broken["refresh"]["incident"]["message"]
            assert daemon.service.state.generation == generation
            assert daemon_renders(broken) == one_shot
            assert daemon.work()["lowered"] == 0

            # the next good edit reuses against the last good generation:
            # only inst_030.go's functions are lowered again
            (tmp_path / "inst_030.go").write_text(buffer_edit(good))
            mended = daemon.detect()
            assert "failed" not in mended["refresh"]
            program = daemon.service.state.program
            edited = functions_of(program, good)
            assert daemon.work() == {
                "lowered": len(edited),
                "reused": len(program.functions) - len(edited),
                "digests": len(edited),
            }
            assert len(edited) == 4
            daemon.check_fresh()
            assert daemon_renders(mended) == renders(
                Project.from_path(str(tmp_path)).detect()
            )


# -- the slow variant: every Table 1 app, a fixed-seed mix of edits -----------

EDIT_KINDS = ("buffer", "temp", "function", "field", "delete", "undefined")


def _pick(rng: random.Random, files: Dict[str, str], want: Callable[[str], bool]) -> Optional[str]:
    names = sorted(name for name, text in files.items() if want(text))
    return rng.choice(names) if names else None


def mixed_edits(app: str, rng: random.Random, files: Dict[str, str], count: int):
    """Yield ``count`` edits of ``files`` (updated in place) as (kind,
    file name, new text or None to delete).

    A delete is followed by its restore and an undefined name by its
    mend (a buffer edit of the last good text, or that text), each pair
    counting as two of the ``count`` edits."""
    made = 0
    serial = 0
    tag = re.sub(r"\W", "", app)

    def edit(kind: str, name: str, text: Optional[str]):
        if text is None:
            del files[name]
        else:
            files[name] = text
        return kind, name, text

    while made < count:
        kind = rng.choice(EDIT_KINDS)
        if kind in ("delete", "undefined") and made + 2 > count:
            continue
        if kind == "buffer":
            name = _pick(rng, files, lambda t: CHANNEL.search(t) is not None)
            if name is None:
                continue
            yield edit(kind, name, buffer_edit(files[name], rng.randint(1, 9)))
        elif kind == "temp":
            name = _pick(rng, files, lambda t: FUNC_LINE.search(t) is not None)
            funcs = len(FUNC_LINE.findall(files[name]))
            yield edit(kind, name, temp_edit(files[name], rng.randrange(funcs)))
        elif kind == "function":
            serial += 1
            name = _pick(rng, files, lambda t: True)
            yield edit(kind, name, append_edit(
                f"func extra{serial}{tag}() {{\n\tch := make(chan int)\n"
                f"\tgo func() {{\n\t\tch <- {serial}\n\t}}()\n}}\n"
            )(files[name]))
        elif kind == "field":
            name = _pick(rng, files, lambda t: "struct {\n" in t)
            if name is None:
                continue
            struct = re.search(r"^type (\w+) struct \{\n", files[name], re.M).group(1)
            serial += 1
            field = rng.choice([f"extra{serial} int", f"mu{serial} sync.Mutex"])
            yield edit(kind, name, struct_field_edit(struct, field)(files[name]))
        elif kind == "delete":
            name = _pick(rng, files, lambda t: True)
            if name == "main.go":
                continue
            good = files[name]
            yield edit(kind, name, None)
            yield edit("restore", name, good)
            made += 1
        else:
            name = _pick(rng, files, lambda t: FUNC_LINE.search(t) is not None)
            good = files[name]
            yield edit(kind, name, undefined_edit(good))
            mend = buffer_edit(good, rng.randint(1, 9)) if CHANNEL.search(good) else good
            yield edit("mend", name, mend)
            made += 1
        made += 1


APPS = [app.name for app in build_corpus()]


@pytest.mark.slow
@pytest.mark.parametrize("app", APPS)
def test_every_app_split_and_edited_equals_a_fresh_build(app, tmp_path):
    files = split_app_files(app)
    write(tmp_path, files)
    rng = random.Random(f"incremental-lowering:{app}")
    with Daemon(tmp_path) as daemon:
        result = daemon.detect()
        cold = daemon.work()
        assert cold["reused"] == 0 and cold["lowered"] == cold["digests"]
        daemon.check_fresh()
        expected = renders(Project.from_path(str(tmp_path)).detect())
        assert daemon_renders(result) == expected
        reused = 0
        edits = list(mixed_edits(app, rng, dict(files), 10))
        for kind, name, text in edits:
            if text is None:
                (tmp_path / name).unlink()
            else:
                (tmp_path / name).write_text(text)
            result = daemon.detect()
            work = daemon.work()
            if kind == "undefined":
                assert result["refresh"]["failed"] is True, (kind, name)
                assert daemon_renders(result) == expected
                assert work["lowered"] == 0
                continue
            assert "failed" not in result["refresh"], (kind, name)
            if result["refresh"]["noop"]:
                # a mend back to the last good bytes: nothing to rebuild
                assert work == {"lowered": 0, "reused": 0, "digests": 0}
                continue
            program = daemon.service.state.program
            assert work["lowered"] + work["reused"] == len(program.functions)
            assert work["digests"] == work["lowered"]
            if kind in ("buffer", "mend") and CHANNEL.search(text):
                # the edit draws no register: only the file is lowered again
                assert work["lowered"] == len(functions_of(program, text)), (kind, name)
            if kind in ("function", "field", "delete", "restore"):
                assert work["reused"] == 0, (kind, name)
            reused += work["reused"]
            daemon.check_fresh()
            expected = renders(Project.from_path(str(tmp_path)).detect())
            assert daemon_renders(result) == expected, (kind, name)
        assert len(edits) == 10
    assert reused > 0


# -- the memoized block order and instruction sequence ------------------------


def walk_reachable(func: ir.Function) -> List[ir.Block]:
    """The block walk as it was before the memo: DFS preorder from entry."""
    if func.entry is None:
        return []
    seen = set()
    stack = [func.entry]
    order = []
    while stack:
        block = stack.pop()
        if block.id in seen:
            continue
        seen.add(block.id)
        order.append(block)
        stack.extend(reversed(block.successors()))
    return order


class TestMemoizedWalks:
    def test_memo_equals_the_walk_on_every_app_function(self):
        """After a full detect has read every memo, each still equals a
        fresh walk: nothing wrote the IR once it was built."""
        functions = 0
        for app in build_corpus():
            program = app.program()
            run_gcatch(program)
            for func in program:
                blocks = func.reachable_blocks()
                assert isinstance(blocks, tuple)
                assert func.reachable_blocks() is blocks
                want = walk_reachable(func)
                assert list(blocks) == want, func.name
                want_instrs = [i for b in want for i in b.all_instrs()]
                assert list(func.instructions()) == want_instrs, func.name
                functions += 1
        assert functions > 2000

    def test_instructions_is_an_iterator(self):
        func = build("func main() {\n\tch := make(chan int)\n\tch <- 1\n}\n").functions["main"]
        first = next(func.instructions())
        assert isinstance(first, ir.MakeChan)
        assert first is next(func.instructions())
        assert list(func.instructions()) == list(func.instructions())
