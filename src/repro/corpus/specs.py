"""Table 1 of the paper as data: the 21 evaluated applications with their
per-category real-bug and false-positive counts and GFix strategy totals.

The synthetic corpus seeds each application with exactly these populations,
so the Table 1 harness regenerates the table's *shape* (who has how many
bugs of which kind, which strategies fix them) on our MiniGo substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Cell:
    """One Table 1 cell: x real bugs, y false positives (the paper's x_y)."""

    real: int = 0
    fp: int = 0

    def __str__(self) -> str:
        if self.real == 0 and self.fp == 0:
            return "-"
        return f"{self.real}({self.fp})"


@dataclass(frozen=True)
class AppSpec:
    """One row of Table 1."""

    name: str
    bmoc_c: Cell = Cell()
    bmoc_m: Cell = Cell()
    forget_unlock: Cell = Cell()
    double_lock: Cell = Cell()
    conflict_lock: Cell = Cell()
    struct_field: Cell = Cell()
    fatal: Cell = Cell()
    fix_s1: int = 0
    fix_s2: int = 0
    fix_s3: int = 0
    # distribution of GFix-unfixable BMOC-channel bugs by reason
    unfixable: Tuple[Tuple[str, int], ...] = ()
    # relative code-size weight (Kubernetes is the largest; drives the
    # amount of benign background code, for the scalability benchmark)
    size_weight: int = 1

    @property
    def gfix_total(self) -> int:
        return self.fix_s1 + self.fix_s2 + self.fix_s3

    @property
    def unfixed_count(self) -> int:
        return self.bmoc_c.real - self.gfix_total


# unfixable reasons (see repro.fixer.safety)
PARENT = "parent-blocked"
SIDE = "side-effects"
RECVUSED = "recv-value-used"
COMPLEX = "complex-goroutines"

# Table 1, verbatim. x_y cells become Cell(x, y).
TABLE1: List[AppSpec] = [
    AppSpec(
        "Go",
        bmoc_c=Cell(21, 2),
        bmoc_m=Cell(1, 1),
        forget_unlock=Cell(8, 3),
        double_lock=Cell(0, 2),
        conflict_lock=Cell(1, 0),
        struct_field=Cell(2, 5),
        fatal=Cell(3, 0),
        fix_s1=12,
        fix_s2=0,
        fix_s3=2,
        unfixable=((PARENT, 3), (SIDE, 3), (RECVUSED, 1)),
        size_weight=6,
    ),
    AppSpec(
        "Kubernetes",
        bmoc_c=Cell(14, 5),
        bmoc_m=Cell(1, 0),
        forget_unlock=Cell(1, 0),
        double_lock=Cell(1, 0),
        struct_field=Cell(5, 6),
        fatal=Cell(10, 0),
        fix_s1=8,
        unfixable=((PARENT, 2), (SIDE, 3), (COMPLEX, 1)),
        size_weight=10,
    ),
    AppSpec(
        "Docker",
        bmoc_c=Cell(49, 8),
        forget_unlock=Cell(1, 1),
        double_lock=Cell(2, 3),
        conflict_lock=Cell(1, 0),
        struct_field=Cell(3, 1),
        fix_s1=40,
        fix_s2=1,
        fix_s3=6,
        unfixable=((PARENT, 1), (SIDE, 1)),
        size_weight=7,
    ),
    AppSpec(
        "HUGO",
        forget_unlock=Cell(2, 0),
        double_lock=Cell(0, 1),
        struct_field=Cell(2, 1),
        size_weight=2,
    ),
    AppSpec("Gin", size_weight=1),
    AppSpec("frp", forget_unlock=Cell(1, 0), size_weight=1),
    AppSpec("Gogs", size_weight=1),
    AppSpec(
        "Syncthing",
        bmoc_c=Cell(0, 1),
        forget_unlock=Cell(3, 1),
        struct_field=Cell(1, 2),
        size_weight=2,
    ),
    AppSpec(
        "etcd",
        bmoc_c=Cell(39, 8),
        forget_unlock=Cell(6, 1),
        double_lock=Cell(1, 2),
        conflict_lock=Cell(0, 1),
        struct_field=Cell(7, 2),
        fatal=Cell(4, 0),
        fix_s1=24,
        fix_s2=1,
        fix_s3=9,
        unfixable=((PARENT, 2), (SIDE, 2), (COMPLEX, 1)),
        size_weight=5,
    ),
    AppSpec(
        "v2ray-core",
        bmoc_m=Cell(0, 1),
        double_lock=Cell(2, 1),
        conflict_lock=Cell(2, 1),
        struct_field=Cell(3, 0),
        size_weight=2,
    ),
    AppSpec(
        "Prometheus",
        bmoc_c=Cell(2, 1),
        forget_unlock=Cell(1, 1),
        double_lock=Cell(1, 1),
        conflict_lock=Cell(0, 2),
        struct_field=Cell(0, 2),
        fix_s1=2,
        size_weight=3,
    ),
    AppSpec("fzf", forget_unlock=Cell(0, 1), size_weight=1),
    AppSpec("traefik", size_weight=1),
    AppSpec("Caddy", size_weight=1),
    AppSpec(
        "Go-Ethereum",
        bmoc_c=Cell(9, 19),
        bmoc_m=Cell(0, 3),
        forget_unlock=Cell(4, 1),
        double_lock=Cell(9, 1),
        struct_field=Cell(6, 7),
        fatal=Cell(3, 0),
        fix_s1=6,
        fix_s3=2,
        unfixable=((SIDE, 1),),
        size_weight=4,
    ),
    AppSpec("Beego", struct_field=Cell(3, 0), size_weight=2),
    AppSpec("mkcert", size_weight=1),
    AppSpec(
        "TiDB",
        bmoc_c=Cell(1, 0),
        forget_unlock=Cell(0, 6),
        double_lock=Cell(3, 0),
        conflict_lock=Cell(2, 0),
        struct_field=Cell(0, 2),
        fix_s1=1,
        size_weight=4,
    ),
    AppSpec(
        "CockroachDB",
        bmoc_c=Cell(4, 2),
        forget_unlock=Cell(5, 0),
        double_lock=Cell(0, 4),
        conflict_lock=Cell(2, 1),
        struct_field=Cell(0, 3),
        fix_s1=1,
        fix_s2=2,
        unfixable=((PARENT, 1),),
        size_weight=4,
    ),
    AppSpec(
        "gRPC",
        bmoc_c=Cell(6, 0),
        double_lock=Cell(0, 1),
        conflict_lock=Cell(1, 0),
        struct_field=Cell(1, 0),
        fatal=Cell(2, 0),
        fix_s1=4,
        fix_s3=1,
        unfixable=((COMPLEX, 1),),
        size_weight=3,
    ),
    AppSpec(
        "bbolt",
        bmoc_c=Cell(2, 0),
        fatal=Cell(4, 0),
        fix_s1=1,
        fix_s3=1,
        size_weight=1,
    ),
]


def spec_by_name(name: str) -> AppSpec:
    for spec in TABLE1:
        if spec.name == name:
            return spec
    raise KeyError(name)


def totals() -> Dict[str, Cell]:
    out: Dict[str, Cell] = {}
    for column in (
        "bmoc_c",
        "bmoc_m",
        "forget_unlock",
        "double_lock",
        "conflict_lock",
        "struct_field",
        "fatal",
    ):
        real = sum(getattr(spec, column).real for spec in TABLE1)
        fp = sum(getattr(spec, column).fp for spec in TABLE1)
        out[column] = Cell(real, fp)
    return out


# consistency guards (checked by the test suite as well)
assert sum(s.bmoc_c.real for s in TABLE1) == 147
assert sum(s.bmoc_c.fp for s in TABLE1) == 46
assert sum(s.bmoc_m.real for s in TABLE1) == 2
assert sum(s.bmoc_m.fp for s in TABLE1) == 5
assert sum(s.fix_s1 for s in TABLE1) == 99
assert sum(s.fix_s2 for s in TABLE1) == 4
assert sum(s.fix_s3 for s in TABLE1) == 21
assert sum(s.gfix_total for s in TABLE1) == 124
assert sum(count for s in TABLE1 for _, count in s.unfixable) == 23
for _spec in TABLE1:
    assert _spec.unfixed_count == sum(c for _, c in _spec.unfixable), _spec.name
