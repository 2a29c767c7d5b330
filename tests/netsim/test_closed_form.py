"""The closed-form single-bottleneck rerate on a real training run.

On the paper's one-rack star every RS/ICS push shares the PS downlink and
every pull the PS uplink, so almost every plain rerate has one link that
bottlenecks all active flows. ``Network._rerate`` then assigns
``capacity / n`` to every flow without calling the solver and counts
``netsim.fairshare_closed_form``. This is a count and an identity check:
the closed form must serve nearly all plain rerates, and the run's replay
stream must equal the reference solver's (``REPRO_FAIRSHARE=legacy``).
"""

import pytest

import repro.netsim.network as network_mod
from repro.check import capture_stream, stream_digest
from repro.core import OSP
from repro.harness import WorkloadConfig, timing_trainer
from repro.netsim.links import LinkSpec
from repro.netsim.network import Network
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment

pytestmark = pytest.mark.tier1


def _run_osp16():
    cfg = WorkloadConfig(
        "resnet50-cifar10",
        n_workers=16,
        n_epochs=4,
        iterations_per_epoch=4,
        sigma=0.1,
        seed=3,
    )
    trainer = timing_trainer(cfg, OSP())
    result = trainer.run()
    return trainer, stream_digest(capture_stream(trainer, result))


def test_closed_form_serves_plain_rerates_and_matches_legacy(monkeypatch):
    monkeypatch.delenv("REPRO_FAIRSHARE", raising=False)
    prio_solves = []
    real_prio = network_mod.prio_fair_rates

    def counting_prio(*args, **kwargs):
        prio_solves.append(1)
        return real_prio(*args, **kwargs)

    monkeypatch.setattr(network_mod, "prio_fair_rates", counting_prio)
    trainer, fast_digest = _run_osp16()
    stats = trainer.network.stats
    closed = stats["netsim.fairshare_closed_form"]
    # Every non-skipped rerate is one fair-share assignment: a priority
    # solve, or a plain one (closed form or solver).
    plain = stats["netsim.fairshare_calls"] - len(prio_solves)
    assert plain > 0 and prio_solves  # ICS (BULK) overlaps RS (HIGH)
    assert closed >= 0.9 * plain, (closed, plain)
    # Mirrored to the recorder like every other netsim counter.
    assert trainer.recorder.counters["netsim.fairshare_closed_form"] == closed

    monkeypatch.setattr(network_mod, "prio_fair_rates", real_prio)
    monkeypatch.setenv("REPRO_FAIRSHARE", "legacy")
    legacy, legacy_digest = _run_osp16()
    assert legacy.network.stats["netsim.fairshare_closed_form"] == 0
    assert fast_digest == legacy_digest


def _hetero_incast():
    """Incast to node 0 from spokes of mixed speed: the slow spoke caps
    below the hub share, so the closed form must refuse while the fast
    spokes run and serve once the slow flow is alone."""
    env = Environment()
    topo = StarTopology(
        5,
        default_spec=LinkSpec(bandwidth=100.0, latency=0.0),
        overrides={1: LinkSpec(bandwidth=10.0, latency=0.0)},
    )
    net = Network(env, topo)
    net.transfer(1, 0, 400.0, tag=1)
    for src in range(2, 5):
        net.transfer(src, 0, 40.0 * src, tag=src)
    env.run()
    return net, [(r.fid, r.start_time, r.end_time) for r in net.records]


def test_closed_form_falls_back_on_slower_spoke(monkeypatch):
    monkeypatch.setenv("REPRO_FAIRSHARE", "legacy")
    _legacy_net, legacy_records = _hetero_incast()
    monkeypatch.delenv("REPRO_FAIRSHARE", raising=False)
    net, records = _hetero_incast()
    assert records == legacy_records
    closed = net.stats["netsim.fairshare_closed_form"]
    assert 0 < closed < net.stats["netsim.fairshare_calls"]
