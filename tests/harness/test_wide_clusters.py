"""Timing runs wider than 64 workers.

The jitter model used to build exactly 64 per-worker streams, so any wider
run crashed with ``IndexError``. Streams are now created per worker on
first use; runs up to 64 workers must replay exactly as before.
"""

import pytest

from repro.check import capture_stream, stream_digest
from repro.core import OSP
from repro.harness import WorkloadConfig, timing_trainer

pytestmark = pytest.mark.tier1

#: Replay digest of the 64-worker run below, recorded before the jitter
#: model created its streams lazily.
DIGEST_64 = "edc33256eac63c60f53d30a81cf304b3715fc7fef170b99efe0481fe3586ea88"


def _run(n_workers: int):
    cfg = WorkloadConfig(
        "resnet50-cifar10",
        n_workers=n_workers,
        n_epochs=2,
        iterations_per_epoch=2,
        sigma=0.1,
        seed=5,
    )
    trainer = timing_trainer(cfg, OSP())
    return trainer, trainer.run()


@pytest.mark.parametrize("n_workers", [65, 128])
def test_timing_trainer_runs_past_64_workers(n_workers):
    _trainer, result = _run(n_workers)
    assert len(result.recorder.iterations) == n_workers * 4
    workers = {rec.worker for rec in result.recorder.iterations}
    assert workers == set(range(n_workers))


def test_64_worker_replay_unchanged():
    trainer, result = _run(64)
    assert stream_digest(capture_stream(trainer, result)) == DIGEST_64
