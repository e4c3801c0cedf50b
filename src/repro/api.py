"""High-level public API: the end-to-end GCatch + GFix pipeline (Figure 2).

Typical use::

    from repro import Project

    project = Project.from_source(go_source, "mypkg.go")
    result = project.detect()                  # GCatch: BMOC + traditional
    for bug in result.bmoc.bmoc_channel_bugs():
        fix = project.fix(bug)                 # GFix: strategy I -> II -> III
        if fix.fixed:
            print(fix.patch.unified_diff())

    outcome = project.run("main", seed=7)      # dynamic validation
    assert not outcome.blocked_forever
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.detector.gcatch import GCatchResult, run_gcatch
from repro.detector.reporting import BugReport
from repro.engine import EngineConfig
from repro.fixer.dispatcher import FixResult, GFix, GFixSummary
from repro.obs import NULL, Collector
from repro.runtime.choices import Choice
from repro.runtime.explorer import Exploration, explore
from repro.runtime.scheduler import (
    ExecutionResult,
    explore_schedules,
    replay_trace,
    run_program,
)
from repro.ssa import ir
from repro.ssa.builder import build_program


@dataclass
class Project:
    """A loaded MiniGo program plus lazily-built analysis artifacts.

    A project carries one run-scoped :class:`repro.obs.Collector` that
    every pipeline layer reports into. The default is the no-op
    :data:`repro.obs.NULL` (observability off, hot paths pay one check);
    pass ``collector=Collector()`` to ``from_source``/``from_file`` — or
    to an individual call — to trace a run.
    """

    source: str
    filename: str
    program: ir.Program
    collector: Collector = NULL
    _gfix: Optional[GFix] = None

    @classmethod
    def from_source(
        cls,
        source: str,
        filename: str = "<minigo>",
        collector: Optional[Collector] = None,
    ) -> "Project":
        collector = collector or NULL
        return cls(
            source=source,
            filename=filename,
            program=build_program(source, filename, collector=collector),
            collector=collector,
        )

    @classmethod
    def from_file(cls, path: str, collector: Optional[Collector] = None) -> "Project":
        with open(path) as handle:
            source = handle.read()
        return cls.from_source(source, path, collector=collector)

    @classmethod
    def from_files(
        cls, paths: List[str], collector: Optional[Collector] = None
    ) -> "Project":
        """Load a multi-file project (one package, Go-style shared namespace).

        Each file is parsed independently — the same per-file granularity
        :mod:`repro.service` re-parses at on an edit — then lowered into
        one program. ``fix`` needs the patchable single source text, so it
        is only available on single-file projects.
        """
        from repro.obs import STAGE_PARSE
        from repro.ssa.builder import build_program_from_files, parse_source_file

        collector = collector or NULL
        files = []
        for path in paths:
            with open(path) as handle:
                source = handle.read()
            with collector.span(STAGE_PARSE):
                files.append(parse_source_file(source, path))
        program = build_program_from_files(files, collector=collector)
        single = len(files) == 1
        return cls(
            source=files[0].source if single else "",
            filename=files[0].filename if single else "<project>",
            program=program,
            collector=collector,
        )

    @classmethod
    def from_path(cls, path: str, collector: Optional[Collector] = None) -> "Project":
        """Load ``path``: one ``.go`` file, or a directory of them (sorted)."""
        import os

        if os.path.isdir(path):
            # call-time import: repro.service imports repro.cli, which
            # imports this module
            from repro.service.project import project_source_paths

            return cls.from_files(project_source_paths(path), collector=collector)
        return cls.from_file(path, collector=collector)

    def _obs(self, collector: Optional[Collector]) -> Optional[Collector]:
        """Resolve a per-call collector override against the project's."""
        chosen = collector or self.collector
        return chosen if chosen else None

    # -- detection ---------------------------------------------------------

    def detect(
        self,
        config: Optional[EngineConfig] = None,
        collector: Optional[Collector] = None,
    ) -> GCatchResult:
        """Run GCatch (BMOC detector + the five traditional checkers).

        Detection runs shard by shard through
        :func:`repro.detector.gcatch.run_gcatch`; ``config`` (a
        :class:`repro.engine.EngineConfig`, default: no cache, no budget)
        sets the result cache and the per-primitive budgets.

        Every analysis unit runs behind the :mod:`repro.resilience`
        firewall: a crashing unit becomes an incident on the result
        (``result.incidents``, ``result.health()``) instead of aborting
        the run.
        """
        return run_gcatch(self.program, config=config, collector=self._obs(collector))

    # -- fixing -------------------------------------------------------------

    def fix(self, report: BugReport, collector: Optional[Collector] = None) -> FixResult:
        """Run GFix on one detected BMOC bug."""
        return self._gfix_for(collector).fix(report)

    def fix_all(
        self, reports: List[BugReport], collector: Optional[Collector] = None
    ) -> GFixSummary:
        return self._gfix_for(collector).fix_all(reports)

    def _gfix_for(self, collector: Optional[Collector]) -> GFix:
        obs = self._obs(collector)
        if self._gfix is None or (obs is not None and self._gfix.collector is not obs):
            self._gfix = GFix(self.program, self.source, collector=obs)
        return self._gfix

    def apply_fix(self, fix: FixResult) -> "Project":
        """Return a new Project with the patch applied."""
        if fix.patch is None:
            raise ValueError("fix produced no patch")
        return Project.from_source(fix.patch.apply(), self.filename)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        entry: str = "main",
        seed: int = 0,
        max_steps: int = 100_000,
        collector: Optional[Collector] = None,
    ) -> ExecutionResult:
        """Execute the program under one seeded schedule."""
        return run_program(
            self.program,
            entry=entry,
            seed=seed,
            max_steps=max_steps,
            collector=self._obs(collector),
        )

    def stress(
        self,
        entry: str = "main",
        seeds: int = 20,
        max_steps: int = 100_000,
        collector: Optional[Collector] = None,
    ) -> List[ExecutionResult]:
        """Explore many schedules (the paper's random-sleep validation)."""
        return explore_schedules(
            self.program,
            entry=entry,
            seeds=seeds,
            max_steps=max_steps,
            collector=self._obs(collector),
        )

    def explore(
        self,
        entry: str = "main",
        max_runs: int = 512,
        max_steps: int = 20_000,
        collector: Optional[Collector] = None,
    ) -> Exploration:
        """Systematically enumerate schedules (the explorer's dynamic oracle).

        Lists every distinct outcome: the search does not stop at its first
        leaking run.
        """
        return explore(
            self.program,
            entry=entry,
            max_runs=max_runs,
            max_steps=max_steps,
            collector=self._obs(collector),
            every_outcome=True,
        )

    def replay(
        self,
        trace: List[Choice],
        entry: str = "main",
        max_steps: int = 100_000,
        collector: Optional[Collector] = None,
    ) -> ExecutionResult:
        """Deterministically re-run one recorded choice trace."""
        return replay_trace(
            self.program,
            trace,
            entry=entry,
            max_steps=max_steps,
            collector=self._obs(collector),
        )


def detect_and_fix(
    source: str, filename: str = "<minigo>", collector: Optional[Collector] = None
) -> GFixSummary:
    """One-shot pipeline: detect all channel-only BMOC bugs and fix them."""
    project = Project.from_source(source, filename, collector=collector)
    result = project.detect()
    return project.fix_all(result.bmoc.bmoc_channel_bugs())
