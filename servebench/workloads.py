"""Workload definitions and seeded request schedules.

Every workload drives the same served stack (construction -> instance
store -> one forked ``ServiceSupervisor`` worker -> one closed-loop
keep-alive client).  They differ in how much work the requests share,
which decides the layer a request spends its time in:

* ``skew-450`` -- a Zipf stream over a fixed pool of pairs on the E1
  instance (n=449).  Repeats are answered by the worker's response fast
  path, so the median request is pure service overhead (transport,
  ``handle``, fast path) while the tail is the first-time misses.  After
  the reads, ``update_steps`` movement rebinds go to the warm server.
* ``churn-450`` -- the same kind of stream over a smaller pool, with a
  movement-only rebind every ``rebind_every`` requests.  It is the
  workload where the engine's scoped flush and the rebuild path work
  beside reads, so a cache change that looks free on skew-450 shows its
  cost here.

A run repeats one **trial** -- a fresh server set up from scratch, the
workload's request stream, its rebinds, the server stopped -- a fixed
number of times: as many as fit in the run's seconds on the reference
host (2 shared CPUs, quiet).  Every trial of a run does identical work: the stream
is drawn once from the seed, and the instance, the pair pool and the
movement trajectory are fixed parts of the workload.  So trials differ
only by what the host did meanwhile, and every cache and flush counter
of a trial repeats exactly in every other trial and in every run with
the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Seed of the movement trajectory (``ChurnRebinder``'s default speed and
#: move fraction).  Fixed, not drawn from the run seed: a trajectory drawn
#: per run made ``update_ms`` swing by 40% between seeds.
CHURN_SEED = 29

#: The E1 instance (n=449, two holes) both workloads serve.
E1 = dict(width=12.0, height=12.0, hole_count=2, hole_scale=2.0, seed=1)

#: Trials of a run, however short: the best of fewer would hardly be a
#: choice among repeats.
MIN_TRIALS = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one instance."""

    name: str
    #: keyword arguments of ``perturbed_grid_scenario`` (fixed instance)
    instance: dict
    #: requests in one trial's stream
    requests: int
    #: seconds one trial takes on the reference host when it is quiet
    trial_seconds: float
    #: size of the fixed pair pool and the Zipf exponent of the stream
    pool: int
    zipf: float
    #: a movement rebind every this many requests (0 = none in the stream)
    rebind_every: int = 0
    #: movement rebinds pushed to the server after the stream
    update_steps: int = 0
    #: distinct (epoch, pair) keys checked byte-for-byte against the oracle
    oracle_keys: int = 48
    #: stated band for the share of requests that miss the fast path
    miss_band: tuple[float, float] = field(default=(0.0, 1.0))

    def trials(self, seconds: float) -> int:
        """Trials of a run of ``seconds``: fixed, so that the work of a
        run is too (a busy host makes the run longer, not smaller)."""
        return max(MIN_TRIALS, round(seconds / self.trial_seconds))

    def trajectory_steps(self) -> int:
        """Movement steps one trial takes (in the stream and after it)."""
        every = self.rebind_every
        interleaved = len(range(every, self.requests, every)) if every else 0
        return interleaved + self.update_steps


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="skew-450",
            instance=E1,
            requests=2000,
            trial_seconds=2.0,
            pool=60,
            zipf=1.1,
            update_steps=3,
            miss_band=(0.028, 0.031),
        ),
        Workload(
            name="churn-450",
            instance=E1,
            requests=1600,
            trial_seconds=2.4,
            pool=16,
            zipf=1.1,
            rebind_every=400,
            miss_band=(0.035, 0.045),
        ),
    )
}


@dataclass
class Schedule:
    """The seeded inputs of one run (one trial's stream, repeated)."""

    warmup: tuple[int, int]
    requests: list[tuple[int, int]]
    #: index of the churn step each request is served on (0 = initial)
    epochs: list[int]
    #: request indices before which a rebind is applied, in order
    rebind_before: list[int]
    #: (epoch, pair) keys checked against the cache-less oracle
    oracle_keys: list[tuple[int, tuple[int, int]]]

    def expected_misses(self) -> list[bool]:
        """Per request: ``True`` when it cannot be a fast-path hit.

        The worker's response cache holds every pool pair (its bound,
        8192, exceeds any pool here) and is dropped on each rebind, so a
        request misses exactly when its pair was not yet asked in its
        epoch.  The warm-up pair is never in the measured set.
        """
        seen: set[tuple[int, tuple[int, int]]] = set()
        out = []
        for epoch, pair in zip(self.epochs, self.requests):
            key = (epoch, pair)
            out.append(key not in seen)
            seen.add(key)
        return out

    def miss_share(self) -> float:
        misses = self.expected_misses()
        return sum(misses) / len(misses)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), *name.encode()])


def _pool(workload: Workload, n: int) -> tuple[tuple[int, int], list[tuple[int, int]]]:
    """The workload's fixed warm-up pair and pair pool."""
    rng = _rng(0, workload.name + "/pool")
    a, b = rng.choice(n, size=2, replace=False)
    warmup = (int(a), int(b))
    pool: list[tuple[int, int]] = []
    seen = {warmup}
    while len(pool) < workload.pool:
        s, t = (int(x) for x in rng.integers(0, n, size=2))
        # the warm-up source leads no pool pair: the warm-up batch routes
        # from it, and must not answer a measured pair ahead of time
        if s != t and s != warmup[0] and (s, t) not in seen:
            seen.add((s, t))
            pool.append((s, t))
    return warmup, pool


def make_schedule(workload: Workload, n: int, seed: int) -> Schedule:
    """Seeded schedule for ``workload`` on an instance of ``n`` nodes."""
    rng = _rng(seed, workload.name)
    count = workload.requests
    # The pool is part of the workload, like the instance: the same pairs
    # on every seed, so the set of first-time misses (and the bays they
    # activate) is the same and the tail compares like with like.  The
    # seed decides which pairs are popular and the stream.
    warmup, pool = _pool(workload, n)
    ranks = rng.permutation(len(pool))
    weights = 1.0 / np.arange(1, len(pool) + 1) ** workload.zipf
    picks = rng.choice(len(pool), size=count, p=weights / weights.sum())
    requests = [pool[int(ranks[i])] for i in picks]
    every = workload.rebind_every
    epochs = [i // every if every else 0 for i in range(count)]
    rebind_before = list(range(every, count, every)) if every else []
    keys = sorted({(e, p) for e, p in zip(epochs, requests)})
    take = min(workload.oracle_keys, len(keys))
    picked = rng.choice(len(keys), size=take, replace=False)
    oracle_keys = sorted(keys[int(i)] for i in picked)
    return Schedule(
        warmup=warmup,
        requests=requests,
        epochs=epochs,
        rebind_before=rebind_before,
        oracle_keys=oracle_keys,
    )


def tail_rank(count: int, beyond: int = 10) -> tuple[int, float]:
    """Sorted index and percentile of the highest rank with ``beyond``
    samples above it (the tail the sample supports)."""
    if count <= beyond:
        raise ValueError(f"{count} samples cannot support a tail with {beyond} beyond it")
    index = count - 1 - beyond
    return index, 100.0 * (index + 1) / count
