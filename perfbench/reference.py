"""A fixed pure-Python reference workload that measures host speed.

The timed loop runs :func:`reference_work` between analyses and divides
each analysis wall time by the reference time around it, so a host that
runs all Python code slower for a while moves both times alike and the
ratio stays put.  The work imitates the analyzer's hot paths (splitting
text into tokens, then a set-union worklist fixpoint over dicts of
sets) and imports nothing from the program, so a change to the program
cannot move it.  Its inputs are fixed: it does the same work in every
run of every workload and seed.
"""

from __future__ import annotations

import random
import time

# Sized so that one call takes about 0.1 s on a 2.0 GHz Xeon vCPU and
# its peak heap stays near 2 MB, well under any analysis's.
ROUNDS = 20
NAMES = 500
STEPS_PER_ROUND = 2500
MAX_SET = 24


def reference_work() -> int:
    """``ROUNDS`` times, tokenize a generated text and propagate sets to
    a fixpoint; returns the worklist steps taken (always
    ``ROUNDS * STEPS_PER_ROUND``)."""
    return sum(_round(seed) for seed in range(ROUNDS))


def _round(seed: int) -> int:
    rng = random.Random(seed)
    names = [f"v{i}_{rng.randrange(1000)}" for i in range(NAMES)]
    text = " ".join(f'{a} = call({b}, "s{i}");'
                    for i, (a, b) in enumerate(zip(names, reversed(names))))
    tokens = [(word.strip(";(),"), len(word)) for word in text.split()]
    successors: dict = {}
    for i, (token, length) in enumerate(tokens):
        successors.setdefault(token, []).append(
            tokens[(i * 7 + length) % len(tokens)][0])
    points_to = {key: {key} for key in successors}
    worklist = list(successors)
    steps = 0
    while worklist and steps < STEPS_PER_ROUND:
        key = worklist.pop()
        steps += 1
        source = points_to[key]
        for succ in successors[key]:
            target = points_to.setdefault(succ, set())
            if not source <= target:
                target |= source
                if len(target) < MAX_SET and succ in successors:
                    worklist.append(succ)
    return steps


def time_reference() -> float:
    """Wall seconds of one :func:`reference_work` call."""
    start = time.perf_counter()
    steps = reference_work()
    seconds = time.perf_counter() - start
    if steps != ROUNDS * STEPS_PER_ROUND:
        raise AssertionError(f"reference work took {steps} steps, "
                             f"expected {ROUNDS * STEPS_PER_ROUND}")
    return seconds
