"""Regenerate pbw_pool.json, the frozen word pool of the pbw-long workload.

    python3 benchmarks/make_pool.py

Random words cost anywhere from 1 ms to over a second to normalize, so a
seeded draw of raw random words makes the pass time swing by 15-20% from
one seed to the next.  This script draws random words once, from a fixed
generator, and keeps for each (algebra, length) stratum only words whose
rewriting work lies within 10% of the stratum median.  Rewriting work is
the number of terms summed over the memo entries that normalizing the word
creates; it tracks normalization time far better than the word length or
the memo size do.  The pool is
input data: the benchmark's seed picks words out of it, and the script is
kept only to show how the pool was made.  Regenerating it after the
rewriting engine changes would give parent and child different inputs.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bigla.catalog import catalog  # noqa: E402
from bigla.uea import EnvelopingAlgebra  # noqa: E402

ALGEBRAS = ("so3", "so12", "qalgebra-lie", "qmat2-lie", "unitary2x2")
LENGTHS = range(8, 15)
PER_STRATUM = 24
PROBE = 60
BAND = 0.10


def rewriting_work(g, word) -> int:
    ctx = EnvelopingAlgebra(g)
    ctx.normal_form(word)
    return sum(len(terms) for terms in ctx._nf_memo.values())


def main():
    rng = random.Random("bigla-pbw-pool")
    pool = {}
    for name in ALGEBRAS:
        g = catalog()[name][1]()
        labels = g.space.labels
        pool[name] = {}
        for length in LENGTHS:
            probe = [rewriting_work(g, tuple(rng.randrange(g.dim) for _ in range(length)))
                     for _ in range(PROBE)]
            target = statistics.median(probe)
            kept = []
            while len(kept) < PER_STRATUM:
                word = tuple(rng.randrange(g.dim) for _ in range(length))
                if abs(rewriting_work(g, word) - target) <= BAND * target:
                    kept.append(",".join(labels[k] for k in word))
            pool[name][str(length)] = kept
            print(f"{name} {length}: median work {target}", file=sys.stderr)
    with open(os.path.join(HERE, "pbw_pool.json"), "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
