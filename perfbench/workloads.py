"""The benchmark's three canonical OSP simulations.

Each workload builds its trainer or runner through the public harness
(``repro.harness``), the way a researcher's script would, from a seed
given on the command line. :func:`outcome` reduces a finished run to the
things the benchmark checks: worker-iteration count, replay-stream digest
(``repro.check``), virtual seconds, finite loss.

Workload sizes are fixed here; a change to them is a change of benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

#: Seed whose digests are committed in ``golden.json``.
DEFAULT_SEED = 0

CARD = "resnet50-cifar10"


@dataclass(frozen=True)
class Workload:
    name: str
    #: simulated worker-iterations one run must record (all tenants)
    expected_iters: int
    build: Callable[[int], object]


def _timing_osp_64(seed: int):
    from repro.core import OSP
    from repro.harness import WorkloadConfig, timing_trainer

    cfg = WorkloadConfig(CARD, n_workers=64, n_epochs=4, iterations_per_epoch=8,
                         sigma=0.1, seed=seed)
    return timing_trainer(cfg, OSP())


def _numeric_osp_4(seed: int):
    from repro.core import OSP
    from repro.harness import WorkloadConfig, numeric_trainer

    # The synthetic dataset (1200 train samples, batch 25) gives 12
    # iterations per worker-epoch.
    cfg = WorkloadConfig(CARD, n_workers=4, n_epochs=2, seed=seed)
    return numeric_trainer(cfg, OSP())


def _cotenant_osp_bsp_32(seed: int):
    from repro.harness import osp_with_background, shared_fabric_runner

    jobs = osp_with_background(CARD, n_workers=32, n_epochs=3,
                               iterations_per_epoch=8, sigma=0.1, seed=seed)
    return shared_fabric_runner(jobs)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("timing-osp-64", 64 * 4 * 8, _timing_osp_64),
        Workload("numeric-osp-4", 4 * 2 * 12, _numeric_osp_4),
        Workload("cotenant-osp-bsp-32", 2 * 32 * 3 * 8, _cotenant_osp_bsp_32),
    )
}


@dataclass(frozen=True)
class Outcome:
    iters: int
    digest: str
    virtual_s: float
    loss_finite: bool
    rerates: int
    rerate_skipped: int


def outcome(result) -> Outcome:
    """Reduce a finished run to its checked outputs and netsim counters.

    ``result`` is a trainer's TrainingResult or the co-tenant runner's
    MultiJobResult; only the latter has ``jobs``.
    """
    from repro.check import capture_stream, stream_digest

    jobs = getattr(result, "jobs", None)
    results = [run.result for run in jobs.values()] if jobs is not None else [result]
    events = []
    for r in results:
        # TrainerContext carries ps/engine, which is all capture_stream needs.
        events.extend(capture_stream(r.context, r))
    losses = [rec.loss for r in results for rec in r.recorder.iterations]
    losses += [ep.train_loss for r in results for ep in r.recorder.epochs]
    counters = result.network_stats if jobs is not None else result.recorder.counters
    return Outcome(
        iters=sum(len(r.recorder.iterations) for r in results),
        digest=stream_digest(events),
        virtual_s=float(result.wall_time),
        loss_finite=all(math.isfinite(float(x)) for x in losses),
        rerates=int(counters.get("netsim.rerates", 0)),
        rerate_skipped=int(counters.get("netsim.rerate_skipped", 0)),
    )


def check(workload: Workload, got: Outcome, expected_digest: str | None) -> list[str]:
    """Reasons the outcome is wrong; empty when it passes."""
    problems = []
    if got.iters != workload.expected_iters:
        problems.append(
            f"recorded {got.iters} worker-iterations, expected {workload.expected_iters}"
        )
    if not got.loss_finite:
        problems.append("non-finite loss")
    if expected_digest is not None and got.digest != expected_digest:
        problems.append(f"digest {got.digest[:16]} != expected {expected_digest[:16]}")
    return problems
