"""A fixed reference workload that measures how fast the host runs Python.

run.py runs this script as its own process between the timed commands,
and divides each timed sample by the mean wall time of the runs of this
script just before and after it, so that a host that slows every process
down moves the reported times less. It
imports nothing from amdep, so a change to the program never changes it.
Its work resembles amdep's: interpreter start-up, a bottom-up pass of
log-sum-exp over tuple-keyed rules, frozenset intersections, and a JSON
round trip.
"""

import json
import math
import random


def bottom_up_pass():
    rng = random.Random(5)
    states = [frozenset(rng.sample(range(12), 3)) for _ in range(400)]
    rules = [(rng.randrange(400), tuple(rng.randrange(400) for _ in range(rng.randrange(3))))
             for _ in range(3000)]
    inside = {}
    for _ in range(6):
        new = {}
        for parent, kids in rules:
            w = math.log1p(len(states[parent] & states[kids[0]]) if kids else 1.0)
            for c in kids:
                w += inside.get(c, 0.0)
            prev = new.get(parent)
            new[parent] = w if prev is None else (
                max(prev, w) + math.log1p(math.exp(-abs(prev - w))))
        inside = new
    return len(json.loads(json.dumps({str(k): v for k, v in inside.items()})))


if __name__ == "__main__":
    for _ in range(3):
        bottom_up_pass()
