"""Resident project state with per-file incremental re-parse.

A :class:`ProjectState` keeps one loaded project — a single ``.go`` file
or a directory of them (one package, Go-style shared namespace) — warm
across daemon requests:

* per-file ASTs, keyed by content hash: :meth:`refresh` re-reads the
  file set, re-parses **only** files whose bytes changed, and reuses
  every other file's cached AST;
* the lowered :class:`~repro.ssa.ir.Program`, rebuilt from those ASTs
  only when something actually changed. The rebuild hands the builder
  the previous generation's :class:`~repro.ssa.builder.Lowering`, so it
  lowers only the declarations an edit can have changed and reuses every
  other declaration's functions (closures included) and register kinds;
  register names stay program-wide and the program equals a fresh build;
* per-function SSA digests (:func:`repro.engine.fingerprint.function_digest`),
  whose old/new diff is the first half of the invalidation algorithm —
  the second half, digest diff → shard set, happens through
  :mod:`repro.engine.invalidate` because only the engine knows which
  functions sit in which shard's scope. A reused function keeps its
  digest; the others are digested once per generation through the
  program's shared :class:`~repro.engine.fingerprint.ProgramDigests`, so
  the engine's shard fingerprints reuse them instead of digesting every
  function again.

Refresh is crash-safe by construction: everything is computed into new
locals and committed at the end, so a mid-refresh failure (unreadable
file, parse error in the edited source) leaves the previous generation
serving — the daemon reports the failure as an incident instead of
swapping in a broken program.
"""

from __future__ import annotations

import errno
import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.fingerprint import ProgramDigests
from repro.obs import NULL, STAGE_PARSE, Collector
from repro.ssa import ir
from repro.ssa.builder import Lowering, lower_files, parse_source_file


@dataclass
class SourceFile:
    """One project file's cached parse: content hash + AST."""

    path: str  # absolute path on disk
    name: str  # stable display name (relative to the project root)
    sha: str  # sha256 of the file bytes
    source: str
    ast: object  # repro.golang.ast_nodes.File


@dataclass
class RefreshDelta:
    """What one :meth:`ProjectState.refresh` changed, at file and
    function granularity. ``is_noop`` means the resident program object
    is untouched (same generation)."""

    changed_files: List[str] = field(default_factory=list)
    added_files: List[str] = field(default_factory=list)
    removed_files: List[str] = field(default_factory=list)
    changed_functions: List[str] = field(default_factory=list)
    added_functions: List[str] = field(default_factory=list)
    removed_functions: List[str] = field(default_factory=list)
    reparsed: int = 0  # files actually re-parsed (the incremental work)
    generation: int = 0  # project generation after this refresh

    def is_noop(self) -> bool:
        return not (self.changed_files or self.added_files or self.removed_files)

    def to_json(self) -> dict:
        return {
            "changed_files": list(self.changed_files),
            "added_files": list(self.added_files),
            "removed_files": list(self.removed_files),
            "changed_functions": list(self.changed_functions),
            "added_functions": list(self.added_functions),
            "removed_functions": list(self.removed_functions),
            "reparsed": self.reparsed,
            "generation": self.generation,
        }


def project_source_paths(path: str) -> List[str]:
    """The project's file set: ``path`` itself, or its ``*.go`` sorted."""
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".go"))
        if not names:
            raise FileNotFoundError(f"no .go files under {path}")
        return [os.path.join(path, n) for n in names]
    if not os.path.exists(path):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return [path]


def content_sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scan_shas(path: str) -> Dict[str, str]:
    """Cheap change probe: ``{file path: content sha}`` with no parsing.

    The watcher polls this; it reads bytes but builds nothing, so an idle
    poll costs file I/O only. Unreadable files are skipped (they will
    surface properly on the refresh that follows a real change).
    """
    shas: Dict[str, str] = {}
    for file_path in project_source_paths(path):
        try:
            with open(file_path, "rb") as handle:
                shas[file_path] = content_sha(handle.read())
        except OSError:
            continue
    return shas


class ProjectState:
    """One project, resident: file set, ASTs, program, function digests."""

    def __init__(self, path: str, collector: Optional[Collector] = None):
        self.path = os.path.abspath(path)
        self.collector = collector or NULL
        self.files: Dict[str, SourceFile] = {}  # path -> cached parse
        self.program: Optional[ir.Program] = None
        self.digests: Dict[str, str] = {}  # function name -> SSA digest
        # the program's per-declaration lowering record, for the next build
        self.lowering: Optional[Lowering] = None
        self.generation = 0  # bumped on every program rebuild

    @property
    def is_single_file(self) -> bool:
        return len(self.files) == 1

    @property
    def single_source(self) -> Optional[SourceFile]:
        if len(self.files) != 1:
            return None
        return next(iter(self.files.values()))

    def load(self) -> RefreshDelta:
        """Initial load; equivalent to a refresh from the empty state."""
        return self.refresh()

    def refresh(self) -> RefreshDelta:
        """Re-scan the file set, re-parse changed files only, and rebuild
        the program iff anything changed. Returns the delta; raises (and
        keeps the previous state) on read/parse errors."""
        obs = self.collector
        delta = RefreshDelta()
        new_files: Dict[str, SourceFile] = {}
        for file_path in project_source_paths(self.path):
            with open(file_path, "rb") as handle:
                data = handle.read()
            sha = content_sha(data)
            cached = self.files.get(file_path)
            if cached is not None and cached.sha == sha:
                new_files[file_path] = cached
                continue
            name = os.path.relpath(file_path, os.path.dirname(self.path) or ".")
            source = data.decode("utf-8")
            with obs.span(STAGE_PARSE):
                tree = parse_source_file(source, file_path)
            new_files[file_path] = SourceFile(
                path=file_path, name=name, sha=sha, source=source, ast=tree
            )
            delta.reparsed += 1
            if cached is None:
                delta.added_files.append(file_path)
            else:
                delta.changed_files.append(file_path)
        delta.removed_files = sorted(set(self.files) - set(new_files))
        if delta.is_noop() and self.program is not None:
            delta.generation = self.generation
            return delta
        program, lowering = lower_files(
            [f.ast for f in new_files.values()], collector=obs, previous=self.lowering
        )
        # the program's shared digest memo: the engine's shard fingerprints
        # for this generation reuse every digest taken here, and a function
        # object shared with the previous generation keeps its digest
        memo = ProgramDigests.of_program(program)
        if self.program is not None:
            memo.inherit(ProgramDigests.of_program(self.program))
        computed = memo.computed
        digests = {name: memo.of(name) for name in program.functions}
        obs.count("fingerprint.digests", memo.computed - computed)
        for name in sorted(set(digests) | set(self.digests)):
            if name not in self.digests:
                delta.added_functions.append(name)
            elif name not in digests:
                delta.removed_functions.append(name)
            elif digests[name] != self.digests[name]:
                delta.changed_functions.append(name)
        # commit: nothing above mutated state, so failures never tear it
        self.files = new_files
        self.program = program
        self.digests = digests
        self.lowering = lowering
        self.generation += 1
        delta.generation = self.generation
        if obs:
            obs.count("service.reparse", delta.reparsed)
        return delta
