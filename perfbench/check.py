"""Output check written apart from the program.

It reconstitutes the merged output with its own few lines (an insert adds
an event, an adjust moves one event's Ve) and compares the result with
the event multiset taken straight from the generated inputs.  On the way
it checks the paper's output properties: stables never go backwards, no
element changes the TDB before a stable already emitted, and the last
stable is +inf.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List

from repro.temporal.elements import Adjust, Insert, Stable

INF = float("inf")


def check_output(output: Iterable, expected: Counter) -> List[str]:
    """Problems found in *output* (an empty list when it is right)."""
    problems: List[str] = []
    live: Counter = Counter()
    frontier = -INF
    for position, element in enumerate(output):
        cls = element.__class__
        if cls is Insert:
            if element.vs < frontier:
                problems.append(f"#{position} {element} inserts before stable {frontier}")
            if element.ve > element.vs:
                live[(element.vs, element.payload, element.ve)] += 1
        elif cls is Adjust:
            if min(element.v_old, element.ve) < frontier:
                problems.append(f"#{position} {element} adjusts before stable {frontier}")
            old = (element.vs, element.payload, element.v_old)
            if live[old] <= 0:
                problems.append(f"#{position} {element} adjusts no live event")
            else:
                live[old] -= 1
            if element.ve > element.vs:
                live[(element.vs, element.payload, element.ve)] += 1
        elif cls is Stable:
            if element.vc < frontier:
                problems.append(f"#{position} stable({element.vc}) goes back from {frontier}")
            frontier = element.vc
        else:
            problems.append(f"#{position} not a stream element: {element!r}")
        if len(problems) > 20:
            return problems
    if frontier != INF:
        problems.append(f"final stable is {frontier}, not +inf")
    live = +live  # drop events adjusted away
    if live != expected:
        missing = expected - live
        extra = live - expected
        problems.append(
            f"{sum(missing.values())} expected events missing "
            f"(e.g. {next(iter(missing), None)}), {sum(extra.values())} "
            f"unexpected (e.g. {next(iter(extra), None)})"
        )
    return problems


def self_test(output: list, expected: Counter) -> List[str]:
    """Show the check catches two faults in an output it passes: one
    output insert dropped, and one output stable moved backwards."""
    failures = []
    if check_output(output, expected):
        failures.append("check rejects the unmodified output")
    inserts = [i for i, e in enumerate(output) if e.__class__ is Insert]
    dropped = list(output)
    del dropped[inserts[len(inserts) // 2]]
    if not check_output(dropped, expected):
        failures.append("check passes an output with one insert dropped")
    stables = [
        i for i, e in enumerate(output)
        if e.__class__ is Stable and 0 < e.vc < INF
    ]
    moved = list(output)
    before, target = stables[len(stables) // 2 - 1 : len(stables) // 2 + 1]
    moved[target] = Stable(output[before].vc - 1)
    if not check_output(moved, expected):
        failures.append("check passes an output with one stable moved back")
    return failures
