"""Seeded instance corpora for the three benchmark workloads.

A workload is a list of instance files, written during set-up, and a
list of tasks that drive `rankone` on them during a timed pass.  A
`Solve` task runs `rankone solve`, writes the reported candidate, and
runs `rankone check` on it (plus `rankone reduce` and a real-side check
for complex instances); a `Rectangle` task runs `rankone rectangle`.

Instances whose verdict defines the workload (the known false
`infeasible` plants, the spectral misses, the p = 3003 plants, the
refusals) use fixed generator seeds, so every run of a workload does the
same solver work.  The workload seed picks the task order, the
MEASUREMENT plant and the FACTORS inputs of the rectangle grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

EPS = 0.25

# spectral misses of the seeds 0-7 desk grid that sweep leaves out for
# length: each spends minutes in structure trials.  Costs are one
# solve_bss call each, with two OpenBLAS threads on a 2-core x86-64 host.
EXCLUDED_FOR_LENGTH = (
    {"instance": "planted_yes(3, 6, 2)", "degree": 4, "cost_s": 96,
     "why": "spectral miss; all 24 trials fail, spectral candidate kept"},
    {"instance": "planted_yes(3, 6, 3)", "degree": 4, "cost_s": 104,
     "why": "spectral miss; all 24 trials fail, spectral candidate kept"},
    {"instance": "planted_yes(3, 6, 5)", "degree": 4, "cost_s": 116,
     "why": "spectral miss; all 24 trials fail, spectral candidate kept"},
    {"instance": "planted_yes(3, 6, 3)", "degree": 6, "cost_s": 134,
     "why": "spectral miss; one structure step lifts quality 0.875 to 0.986"},
    {"instance": "planted_yes(2, 2, 0)", "degree": 4, "cost_s": 21,
     "why": "spectral miss with doomed trials; runs in the rounding workload"},
)


@dataclass(frozen=True)
class Instance:
    """One generated input file.

    kind is a `rankone gen` kind (planted-yes, random-no,
    complex-planted), or `measurement` / `factors`, which the harness
    writes through the library because `gen` has no such kind.  For
    factors, dim_w is the column count N.
    """

    name: str
    kind: str
    n: int
    dim_w: int
    seed: int

    @property
    def expect(self) -> str:
        return "no" if self.kind == "random-no" else "yes"


@dataclass(frozen=True)
class Solve:
    instance: str
    degree: int
    eps: float = EPS


@dataclass(frozen=True)
class Rectangle:
    left: str
    right: str
    seed: int
    eps: float = EPS


@dataclass
class Workload:
    name: str
    instances: list = field(default_factory=list)
    tasks: list = field(default_factory=list)

    def add(self, kind, n, dim_w, seed) -> str:
        name = f"{kind}-n{n}-d{dim_w}-s{seed}"
        if all(inst.name != name for inst in self.instances):
            self.instances.append(Instance(name, kind, n, dim_w, seed))
        return name

    def instance(self, name) -> Instance:
        return next(inst for inst in self.instances if inst.name == name)


# planted-yes plants at generator seed 0 that the relaxation wrongly
# refuses; they stay in sweep whatever the workload seed
KNOWN_FALSE_INFEASIBLE = ((3, 5, 3, 4), (3, 5, 7, 4), (3, 5, 0, 6),
                          (3, 5, 3, 6), (3, 6, 4, 6))


def sweep(seed: int) -> Workload:
    """The desk corpus: every instance kind and every CLI subcommand."""
    wl = Workload("sweep")
    for n, gen_seeds in ((2, (1, 2, 3, 4)), (3, (1,))):
        for dim_w in range(1, n * n + 1):
            for gen_seed in gen_seeds:
                name = wl.add("planted-yes", n, dim_w, gen_seed)
                wl.tasks += [Solve(name, 4), Solve(name, 6)]
    for n, dim_w, gen_seed, degree in KNOWN_FALSE_INFEASIBLE:
        wl.tasks.append(Solve(wl.add("planted-yes", n, dim_w, gen_seed), degree))
    for n, dim_w in ((2, 1), (3, 1), (3, 2)):
        name = wl.add("random-no", n, dim_w, 0)
        wl.tasks += [Solve(name, 4), Solve(name, 6)]
    for dim_w in (1, 2, 3):
        wl.tasks.append(Solve(wl.add("complex-planted", 2, dim_w, 0), 4))
    wl.tasks.append(Solve(wl.add("measurement", 3, 2, seed), 4))
    for n in (3, 4, 5):
        for count in (1000, 3000):
            left = wl.add("factors", n, count, 2 * seed)
            right = wl.add("factors", n, count, 2 * seed + 1)
            wl.tasks.append(Rectangle(left, right, seed))
    return _shuffled(wl, seed)


def large(seed: int) -> Workload:
    """Plants and one refusal at p = 3003 moments: SDP set-up dominates."""
    wl = Workload("large")
    for gen_seed in (0, 1):
        wl.tasks.append(Solve(wl.add("planted-yes", 3, 3, gen_seed), 8))
        wl.tasks.append(Solve(wl.add("planted-yes", 4, 3, gen_seed), 6))
    wl.tasks.append(Solve(wl.add("random-no", 3, 2, 0), 8))
    return _shuffled(wl, seed)


def rounding(seed: int) -> Workload:
    """Spectral misses forced through the structure rounds."""
    wl = Workload("rounding")
    for gen_seed in (0, 2, 3):
        wl.tasks.append(Solve(wl.add("planted-yes", 2, 2, gen_seed), 6, 0.05))
    wl.tasks.append(Solve(wl.add("planted-yes", 2, 2, 0), 4, 0.25))
    # an n = 3 refusal: its grid certificate gives set-up enough array
    # work for a steady setup_s, and the solve stays cheap at degree 4
    wl.tasks.append(Solve(wl.add("random-no", 3, 1, 0), 4))
    return _shuffled(wl, seed)


def mini(seed: int) -> Workload:
    """One cheap instance of each kind, for the self-test."""
    wl = Workload("mini")
    wl.tasks.append(Solve(wl.add("planted-yes", 2, 1, seed), 4))
    wl.tasks.append(Solve(wl.add("random-no", 2, 1, 0), 4))
    wl.tasks.append(Solve(wl.add("complex-planted", 2, 3, 0), 4))
    wl.tasks.append(Solve(wl.add("measurement", 2, 1, seed), 4))
    left = wl.add("factors", 3, 300, 2 * seed)
    right = wl.add("factors", 3, 300, 2 * seed + 1)
    wl.tasks.append(Rectangle(left, right, seed))
    return wl


WORKLOADS = {"sweep": sweep, "large": large, "rounding": rounding}


def _shuffled(wl: Workload, seed: int) -> Workload:
    random.Random(seed).shuffle(wl.tasks)
    return wl
