"""Seeded instance generation and the instance-only quantities the checker needs.

Instances follow the paper's four experiment families on a
communication-homogeneous platform (bandwidth 10, integer speeds 1..20):

  E1  comm 10,            work U[1, 20]
  E2  comm U[1, 100],     work U[1, 20]
  E3  comm U[1, 20],      work U[10, 1000]
  E4  comm U[1, 20],      work U[0.01, 10]

Shapes range over every stages 3..16 x processors 3..10 pair (see
Stream), so no handful of shape clusters decides a percentile.
About a third of the shapes are exact-eligible for the program's exact
member (stages * processors <= 48 and processors <= 6).
"""

import random

BANDWIDTH = 10.0
KINDS = ("E1", "E2", "E3", "E4")
STAGES = (3, 16)
PROCESSORS = (3, 10)
EXACT_CELLS = 48
EXACT_PROCESSORS = 6


class Instance:
    __slots__ = ("kind", "work", "comm", "speeds", "bandwidth", "text")

    def __init__(self, kind, work, comm, speeds, bandwidth=BANDWIDTH):
        self.kind = kind
        self.work = work
        self.comm = comm
        self.speeds = speeds
        self.bandwidth = bandwidth
        self.text = render(work, comm, speeds, bandwidth)

    @property
    def stages(self):
        return len(self.work)

    @property
    def processors(self):
        return len(self.speeds)

    def exact_eligible(self):
        return (self.processors <= EXACT_PROCESSORS
                and self.stages * self.processors <= EXACT_CELLS)

    def latency_optimum(self):
        """L* = delta_0/b + sum(w)/s_max + delta_n/b: every stage on the fastest processor."""
        b = self.bandwidth
        return self.comm[0] / b + sum(self.work) / max(self.speeds) + self.comm[-1] / b

    def period_lower_bound(self):
        """A period no interval mapping can beat, in the sequential comm model.

        The interval holding stage 0 pays delta_0/b and at least w_0/s_max;
        the one holding the last stage pays delta_n/b; every stage is computed
        by one processor no faster than s_max; and some interval computes for
        at least the total work over the sum of all speeds.
        """
        b = self.bandwidth
        s_max = max(self.speeds)
        return max(self.comm[0] / b + self.work[0] / s_max,
                   self.work[-1] / s_max + self.comm[-1] / b,
                   max(self.work) / s_max,
                   sum(self.work) / sum(self.speeds))

    def latency_upper_bound(self):
        """A latency no interval mapping exceeds: every transfer and every stage
        paid at the slowest rate."""
        return sum(self.comm) / self.bandwidth + sum(self.work) / min(self.speeds)


def render(work, comm, speeds, bandwidth):
    return ("pipesched-instance v1\n"
            f"stages {len(work)}\n"
            "work " + " ".join(repr(w) for w in work) + "\n"
            "comm " + " ".join(repr(c) for c in comm) + "\n"
            f"processors {len(speeds)}\n"
            "speeds " + " ".join(repr(s) for s in speeds) + "\n"
            f"bandwidth {bandwidth!r}\n")


def draw(rng, kind=None, stages=None, processors=None):
    """One instance from `rng` (a random.Random); shape and family drawn unless given."""
    kind = kind or rng.choice(KINDS)
    n = stages or rng.randint(*STAGES)
    p = processors or rng.randint(*PROCESSORS)
    if kind == "E1":
        comm = [10.0] * (n + 1)
    elif kind == "E2":
        comm = [rng.uniform(1, 100) for _ in range(n + 1)]
    else:
        comm = [rng.uniform(1, 20) for _ in range(n + 1)]
    if kind in ("E1", "E2"):
        work = [rng.uniform(1, 20) for _ in range(n)]
    elif kind == "E3":
        work = [rng.uniform(10, 1000) for _ in range(n)]
    else:
        work = [rng.uniform(0.01, 10) for _ in range(n)]
    speeds = [float(rng.randint(1, 20)) for _ in range(p)]
    return Instance(kind, work, comm, speeds)


class Stream:
    """Seeded instances whose shapes and families come in shuffled rounds:
    every len(SHAPES) instances hold each (stages, processors) shape once and
    every four hold each family once. Any stretch of the stream then carries
    close to the whole mix, so how long a stretch takes to solve varies less
    from stretch to stretch and from seed to seed than with independent
    draws."""

    SHAPES = [(n, p) for n in range(STAGES[0], STAGES[1] + 1)
              for p in range(PROCESSORS[0], PROCESSORS[1] + 1)]

    def __init__(self, seed, name):
        self.rng = random.Random(f"{name}:{seed}")
        self.shapes = []
        self.kinds = []

    def next(self):
        if not self.shapes:
            self.shapes = list(self.SHAPES)
            self.rng.shuffle(self.shapes)
        if not self.kinds:
            self.kinds = list(KINDS)
            self.rng.shuffle(self.kinds)
        n, p = self.shapes.pop()
        return draw(self.rng, self.kinds.pop(), n, p)


def generate(seed, count, stream="cold"):
    """The first `count` instances of the stream keyed by (stream, seed)."""
    source = Stream(seed, stream)
    return [source.next() for _ in range(count)]
