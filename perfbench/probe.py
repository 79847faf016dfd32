"""A fixed piece of pure-Python work that measures the machine's speed.

    python perfbench/probe.py

It builds a seeded random graph as a dict of lists, walks it, inverts it
into a dict of sets and sorts string labels: the same kind of dict, set and
interpreter work the conleylab layers do, with the same interpreter start.
The work never changes, so its wall time follows only the machine. It
prints the size of what it reached, which the benchmark checks.
"""

import random

N = 40000


def main():
    rng = random.Random(20080512)
    succ = {i: [rng.randrange(N) for _ in range(3)] for i in range(N)}
    seen, stack = {0}, [0]
    while stack:
        for v in succ[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    pred = {}
    for u in seen:
        for v in succ[u]:
            pred.setdefault(v, set()).add(u)
    labels = sorted("c%d" % v for v in pred)
    print(len(seen), len(labels))


if __name__ == "__main__":
    main()
