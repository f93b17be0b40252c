"""Seeded input generation for the three workloads.

Everything here depends only on the seed: the same seed gives the same
workload texts, edit steps and request streams.  The program under test
receives only what these functions produce.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

from repro.churn.engine import MutationEngine
from repro.churn.mutations import Operation, apply_mutation
from repro.workloads.auction import FINDBIDS_SQL, PLACEBID_SQL
from repro.workloads.base import Workload

#: Auction(n) sizes of one cold-scale cycle: the ends and the middle of
#: 32..96.  Every cycle runs each size once, in seeded order: i.i.d. draws
#: from 32..96 moved the median op's n, and with it p50_ms, by ±12%
#: between seeds at ~30 ops per run.  Three sizes rather than every 8th n
#: put p50 in the middle of the n = 64 ops and the tail inside the n = 96
#: ops, each a group of one op per cycle: the host's speed varies by ~11%
#: from one op to the next even after normalisation, so a statistic needs
#: many ops of one size to hold still, and a run has room for ~45 ops.
COLD_SIZES = (32, 64, 96)


def auction_text(n: int, rng: random.Random) -> str:
    """Auction(n) (paper §7.3) in the workload-file format, with the
    item programs declared in seeded order."""
    lines = [f"WORKLOAD Auction({n})", "", "TABLE Buyer (id*, calls)"]
    lines += [f"TABLE Bids{i} (buyerId*, bid)" for i in range(1, n + 1)]
    lines.append("TABLE Log (id*, buyerId, bid)")
    lines += [f"FK f1_{i}: Bids{i}(buyerId) -> Buyer(id)" for i in range(1, n + 1)]
    lines.append("FK f2: Log(buyerId) -> Buyer(id)")
    items = list(range(1, n + 1))
    rng.shuffle(items)
    for i in items:
        bids = f"Bids{i}"
        lines += ["", f"PROGRAM FindBids{i}", FINDBIDS_SQL.strip().replace("Bids", bids), "END"]
        lines += ["", f"PROGRAM PlaceBid{i}", PLACEBID_SQL.strip().replace("Bids", bids), "END"]
        # PlaceBid's statements are q1..q4 here (the paper's q3..q6).
        lines += [
            f"ANNOTATE PlaceBid{i}: q1 = f1_{i}(q2)",
            f"ANNOTATE PlaceBid{i}: q1 = f1_{i}(q3)",
            f"ANNOTATE PlaceBid{i}: q1 = f2(q4)",
        ]
    return "\n".join(lines) + "\n"


def cold_scale_ops(seed: int) -> Iterator[tuple[int, str]]:
    """Endless ``(n, workload text)`` stream, one full size cycle at a time."""
    rng = random.Random(f"{seed}:cold-scale")
    while True:
        sizes = list(COLD_SIZES)
        rng.shuffle(sizes)
        for n in sizes:
            yield n, auction_text(n, rng)


def churn_plan(
    base: Workload, seed: int, steps: int
) -> list[tuple[tuple[Operation, ...], tuple[str, ...]]]:
    """Walk the seeded :class:`MutationEngine` over ``Workload`` objects
    only: each step's session operations and the program names after it.
    (Only the names are kept: a run holds every walk's plan, and whole
    workloads would grow the heap every full garbage collection walks.)"""
    engine = MutationEngine(base, seed=seed)
    workload = base
    plan = []
    for step in range(steps):
        operations: list[Operation] = []
        for mutation in engine.propose(workload, step):
            operations.extend(mutation.operations(workload, base))
            workload = apply_mutation(workload, mutation, base)
        plan.append((tuple(operations), workload.program_names))
    return plan


# -- service-mix --------------------------------------------------------------
#: Workloads of the service mix.  ``subsets`` goes only to workloads of at
#: most 10 programs: its cost grows as 2^programs (see NOTES.md).
SUBSET_ANALYZE = (("auction(24)", 40), ("tpcc", 15), ("smallbank", 15))
ALL_SETTINGS = ("smallbank", "tpcc", "auction(5)")
SUBSETS = ("smallbank", "tpcc", "auction")
ADVISE = ("smallbank", "tpcc", "auction(5)")
WARM = ("auction(24)", "tpcc", "smallbank", "auction(5)", "auction")

#: (kind, weight) of the request mix.  This is a constructed coverage mix,
#: not measured traffic: no request log of the service exists to sample.
#: The rule that sets the weights: warm subset ``analyze`` (the read path)
#: has most requests and the largest share of request time; every other
#: kind, each the only one to reach some layer, takes at least ~3% of
#: request time; ``watch``, the costliest kind, stays under about a third.
#: ``run.py`` prints each kind's share (``per_kind``); NOTES.md records it.
#: ``watch`` has weight 2, not 4: ``tail_ms`` is the 10th-largest request,
#: almost always a watch run, and with ~130 of them a run (weight 4) it
#: was the top 8% of their costs and spread 0.27 between seeds; ~65 make
#: it the top 15%, a less extreme and steadier quantile.
#: Revisit the weights once a real request log is in the repository.
MIX = (
    ("analyze", sum(weight for _, weight in SUBSET_ANALYZE)),
    ("all_settings", 8),
    ("subsets", 6),
    ("graph", 5),
    ("advise", 7),
    ("watch", 2),
)

#: Share of each kind replayed in-process for the byte-identity check
#: (``subsets``/``graph``/``watch`` are checked on every response).
SAMPLE_RATE = {"analyze": 0.03, "all_settings": 0.1, "advise": 0.2, "graph": 0.1}

WATCH_STEPS = 20


def _subset(rng: random.Random, names: tuple[str, ...], smallest: int) -> list[str]:
    return rng.sample(names, rng.randint(smallest, len(names) - 1))


def service_ops(
    seed: int, client: int, programs: dict[str, tuple[str, ...]]
) -> Iterator[tuple[str, str, dict[str, Any], bool]]:
    """Endless ``(mix kind, route, body, sampled)`` stream of one client."""
    rng = random.Random(f"{seed}:service-mix:{client}")
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    analyze_names = [name for name, _ in SUBSET_ANALYZE]
    analyze_weights = [weight for _, weight in SUBSET_ANALYZE]
    while True:
        kind = rng.choices(kinds, weights)[0]
        if kind == "analyze":
            workload = rng.choices(analyze_names, analyze_weights)[0]
            route, body = "analyze", {
                "workload": workload,
                "subset": _subset(rng, programs[workload], 2),
            }
        elif kind == "all_settings":
            workload = rng.choice(ALL_SETTINGS)
            route, body = "analyze", {
                "workload": workload,
                "subset": _subset(rng, programs[workload], 1),
                "all_settings": True,
            }
        elif kind == "subsets":
            route, body = "subsets", {"workload": rng.choice(SUBSETS)}
        elif kind == "graph":
            route, body = "graph", {"workload": "tpcc"}
        elif kind == "advise":
            route, body = "advise", {"workload": rng.choice(ADVISE)}
        else:
            route, body = "watch", {
                "workload": "auction(5)",
                "steps": WATCH_STEPS,
                "seed": rng.randrange(1 << 30),
                "oracle_every": WATCH_STEPS,
            }
        sampled = rng.random() < SAMPLE_RATE.get(kind, 0.0)
        yield kind, route, body, sampled
