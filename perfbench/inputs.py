"""Seeded workload inputs.

Everything here is a function of the seed alone and is written apart
from the program under test (only the element classes are imported), so
a change to the program's own generators cannot change what the
benchmark feeds it.  Each function below returns a :class:`Workload`: the turns
handed to the plan, and the event multiset the merged output must
reconstitute to.
"""

from __future__ import annotations

import random
import string
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.temporal.elements import Adjust, Insert, Stable

INF = float("inf")
#: Elements per hand-in (one ``process_batch`` call per turn).
TURN = 64

_ALPHABET = string.ascii_letters + string.digits


@dataclass
class Workload:
    #: ``(input id, elements)`` in hand-in order.
    turns: List[Tuple[int, list]]
    #: Input ids the plan attaches.
    inputs: int
    #: ``(Vs, payload, Ve) -> count`` the output must reconstitute to.
    expected: Counter

    def __post_init__(self) -> None:
        # Hand-in index for latency: the turn that first carried each
        # (Vs, payload), and the turns at which the largest input stable
        # handed in so far rose (to find the first input stable >= t).
        self.first_turn: Dict[Tuple, int] = {}
        self.stable_vcs: List[float] = []
        self.stable_turns: List[int] = []
        for index, (_, chunk) in enumerate(self.turns):
            for element in chunk:
                if element.__class__ is Stable:
                    if not self.stable_vcs or element.vc > self.stable_vcs[-1]:
                        self.stable_vcs.append(element.vc)
                        self.stable_turns.append(index)
                else:
                    self.first_turn.setdefault((element.vs, element.payload), index)

    def stable_turn(self, t: float) -> int:
        """The first turn that handed in an input ``stable(>= t)``."""
        return self.stable_turns[bisect_left(self.stable_vcs, t)]

    @property
    def elements(self) -> int:
        return sum(len(chunk) for _, chunk in self.turns)


def base_stream(
    rng: random.Random,
    inserts: int,
    stable_freq: float = 0.02,
    max_gap: int = 20,
    duration: int = 1000,
    disorder: float = 0.2,
    disorder_window: int = 500,
) -> list:
    """One disordered logical stream: inserts of events with a unique
    ``(Vs, payload)``, stables after which no Vs falls behind, and a
    final ``stable(+inf)``."""
    blobs = ["".join(rng.choices(_ALPHABET, k=16)) for _ in range(64)]
    out: list = []
    vs = 0
    last_stable = 0
    for seq in range(inserts):
        vs += rng.randint(0, max_gap)
        start = vs
        if rng.random() < disorder:
            start = max(last_stable, vs - rng.randint(1, disorder_window))
        payload = (rng.randint(0, 400), seq, rng.choice(blobs))
        out.append(Insert(payload, start, start + duration))
        if rng.random() < stable_freq:
            out.append(Stable(vs))
            last_stable = vs
    out.append(Stable(INF))
    return out


def _provisional(rng: random.Random, insert: Insert) -> float:
    if rng.random() < 0.5:
        return INF
    return insert.vs + rng.randint(1, 2 * int(insert.ve - insert.vs))


def diverge(
    base: list,
    rng: random.Random,
    speculate: float = 0.3,
    keep_stables: float = 0.5,
) -> list:
    """A physically different, logically equal copy of *base*.

    Stables other than ``+inf`` are kept with probability
    *keep_stables*; a *speculate* share of inserts become an insert with
    a provisional Ve plus one or two adjusts converging on the true Ve;
    data elements are then shuffled within each stability segment,
    keeping each event's insert -> adjust order.
    """
    out: list = []
    segment: List[list] = []  # one chain (insert + adjusts) per event

    def flush() -> None:
        # A uniform random interleave that keeps each chain in order:
        # draw one random position per element, sort each chain's draws.
        tagged = []
        for chain in segment:
            marks = sorted(rng.random() for _ in chain)
            tagged.extend(zip(marks, chain))
        tagged.sort(key=lambda pair: pair[0])
        out.extend(element for _, element in tagged)
        segment.clear()

    for element in base:
        if isinstance(element, Stable):
            if element.vc == INF or rng.random() < keep_stables:
                flush()
                out.append(element)
            continue
        if rng.random() >= speculate:
            segment.append([element])
            continue
        current = _provisional(rng, element)
        chain = [Insert(element.payload, element.vs, current)]
        revisions = rng.randint(1, 2)
        for step in range(revisions):
            target = (
                element.ve if step == revisions - 1 else _provisional(rng, element)
            )
            if target != current:
                chain.append(Adjust(element.payload, element.vs, current, target))
                current = target
        segment.append(chain)
    flush()
    return out


def expected_events(stream: list) -> Counter:
    """The event multiset a stream of inserts (no adjusts) describes."""
    return Counter(
        (e.vs, e.payload, e.ve) for e in stream if isinstance(e, Insert)
    )


def random_turns(
    replicas: List[list], rng: random.Random, turn: int = TURN
) -> List[Tuple[int, list]]:
    """Hand the replicas in *turn*-element slices, picking the next
    replica at random among those with elements left."""
    cursors = [0] * len(replicas)
    live = list(range(len(replicas)))
    turns = []
    while live:
        rid = rng.choice(live)
        start = cursors[rid]
        turns.append((rid, replicas[rid][start : start + turn]))
        cursors[rid] = start + turn
        if cursors[rid] >= len(replicas[rid]):
            live.remove(rid)
    return turns


def replicas(seed: int, inserts: int, copies: int = 3) -> Workload:
    """Three divergent replicas of one disordered stream (the paper's
    high-availability case)."""
    base = base_stream(random.Random(seed), inserts)
    streams = [
        diverge(base, random.Random(seed * 1_000 + 1 + i)) for i in range(copies)
    ]
    turns = random_turns(streams, random.Random(seed * 1_000))
    return Workload(turns, copies, expected_events(base))


def lagged(seed: int, events: int, lag: int, run: int = 50) -> Workload:
    """Two identical replicas of infinite-lifetime point events with a
    stable after every *run* events, the second replica trailing the first
    by *lag* elements.  The seed sets payloads and Vs gaps; the stable
    cadence is fixed so every seed asks the same stable-path work."""
    rng = random.Random(seed)
    tag = "".join(rng.choices(_ALPHABET, k=6))
    stream: list = []
    vs = 0
    for i in range(events):
        vs += rng.randint(1, 3)
        stream.append(Insert(f"{tag}{i}", vs, INF))
        if i % run == run - 1:
            stream.append(Stable(vs))
    stream.append(Stable(INF))
    turns = []
    lead = trail = 0
    n = len(stream)
    while trail < n:
        if lead < n:
            turns.append((0, stream[lead : lead + TURN]))
            lead += TURN
        ready = min(n, lead - lag) if lead < n else n
        while trail + TURN <= ready or (lead >= n and trail < n):
            turns.append((1, stream[trail : trail + TURN]))
            trail += TURN
    return Workload(turns, 2, expected_events(stream))

