"""Differential tests: fast fair-share solver ≡ legacy progressive filling.

The fast path's whole contract is *bit-identical rate dicts* — not
approximately-equal, ``==``-equal floats — on every input the reference
accepts. Hypothesis drives randomized star topologies (the trainer's
shape), hub-shaped incast/broadcast through one PS link (the closed-form
single-bottleneck case, with its exact ties and near-ties), multi-tier/
general topologies, degenerate eps-scale capacities, and loopback/
empty-route flows through both solvers.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.fairshare import (
    _EPS,
    fair_rates,
    fairshare_mode,
    fast_fair_rates,
    max_min_fair_rates,
    prio_fair_rates,
    single_bottleneck_share,
)


# ------------------------------------------------------------- mode dispatch
def test_default_mode_is_fast(monkeypatch):
    monkeypatch.delenv("REPRO_FAIRSHARE", raising=False)
    assert fairshare_mode() == "fast"


def test_legacy_kill_switch(monkeypatch):
    monkeypatch.setenv("REPRO_FAIRSHARE", "legacy")
    assert fairshare_mode() == "legacy"
    monkeypatch.setenv("REPRO_FAIRSHARE", "  LEGACY ")
    assert fairshare_mode() == "legacy"
    monkeypatch.setenv("REPRO_FAIRSHARE", "fast")
    assert fairshare_mode() == "fast"


def test_fair_rates_dispatches_on_mode(monkeypatch):
    routes = {"f1": ["a", "b"], "f2": ["b"]}
    caps = {"a": 3.0, "b": 4.0}
    monkeypatch.setenv("REPRO_FAIRSHARE", "legacy")
    legacy = fair_rates(routes, caps)
    monkeypatch.delenv("REPRO_FAIRSHARE", raising=False)
    fast = fair_rates(routes, caps)
    assert legacy == fast == max_min_fair_rates(routes, caps)


# --------------------------------------------------- fast solver unit checks
def test_fast_matches_legacy_on_textbook_cascade():
    routes = {
        "f1": ["l1"],
        "f2": ["l1", "l2"],
        "f3": ["l2", "l3"],
        "f4": ["l3"],
    }
    caps = {"l1": 10.0, "l2": 14.0, "l3": 20.0}
    assert fast_fair_rates(routes, caps) == max_min_fair_rates(routes, caps)


def test_fast_validates_inputs():
    with pytest.raises(ValueError):
        fast_fair_rates({"f": ["ghost"]}, {"real": 1.0})
    with pytest.raises(ValueError):
        fast_fair_rates({"f": ["a"]}, {"a": 0.0})


def test_fast_loopback_and_duplicate_links():
    routes = {"lo": [], "dup": ["a", "a"], "plain": ["a"]}
    caps = {"a": 6.0}
    fast = fast_fair_rates(routes, caps)
    assert fast == max_min_fair_rates(routes, caps)
    assert fast["lo"] == float("inf")
    # A duplicated link counts once for its crossing flow.
    assert fast["dup"] == pytest.approx(3.0)


# -------------------------------------------------- zero-share freeze hazard
def test_zero_share_clamp_does_not_freeze_flows_at_zero():
    """Regression for the zero-share freeze hazard.

    The ``max(0.0, ...)`` clamp can zero a loaded link's remaining
    capacity when eps-scale shares tie within float fuzz; the old solver
    then froze that link's flows at rate 0.0 — a transfer that never
    completes (and the defensive RuntimeError in Network._rerate). The
    "f0" single-link flow pins link "a" first in scan order so the
    degenerate round deterministically reproduces the old hazard.
    """
    routes = {"f0": ["a"], "f1": ["a", "b"], "f2": ["b"]}
    caps = {"a": 2e-12, "b": 1e-12}
    for solver in (max_min_fair_rates, fast_fair_rates):
        rates = solver(routes, caps)
        assert all(r > 0.0 for r in rates.values()), (solver.__name__, rates)
    assert max_min_fair_rates(routes, caps) == fast_fair_rates(routes, caps)


# ------------------------------------------------------- hypothesis strategy
@st.composite
def star_cases(draw):
    """Randomized star topology: every route = one uplink + one downlink."""
    n = draw(st.integers(min_value=2, max_value=24))
    cap = st.floats(
        min_value=1e-12, max_value=1e9, allow_nan=False, allow_infinity=False
    )
    caps = {}
    for i in range(n):
        caps[f"up:{i}"] = draw(cap)
        caps[f"down:{i}"] = draw(cap)
    n_flows = draw(st.integers(min_value=1, max_value=3 * n))
    flows = {}
    for j in range(n_flows):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        flows[j] = [] if src == dst else [f"up:{src}", f"down:{dst}"]
    return flows, caps


@st.composite
def general_cases(draw):
    """Arbitrary multi-tier topology with degenerate capacities allowed."""
    n_links = draw(st.integers(min_value=1, max_value=8))
    links = [f"L{i}" for i in range(n_links)]
    cap = st.one_of(
        st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
        st.floats(min_value=1e-12, max_value=1e-9, allow_nan=False),
    )
    caps = {l: draw(cap) for l in links}
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = {}
    for j in range(n_flows):
        k = draw(st.integers(min_value=0, max_value=min(4, n_links)))
        route = draw(
            st.lists(st.sampled_from(links), min_size=k, max_size=k)
        )
        flows[f"f{j}"] = route
    return flows, caps


@settings(max_examples=300, deadline=None)
@given(star_cases())
def test_fast_bit_identical_on_stars(case):
    flows, caps = case
    assert fast_fair_rates(flows, caps) == max_min_fair_rates(flows, caps)


@settings(max_examples=300, deadline=None)
@given(general_cases())
def test_fast_bit_identical_on_general_topologies(case):
    flows, caps = case
    legacy = max_min_fair_rates(flows, caps)
    fast = fast_fair_rates(flows, caps)
    assert fast == legacy
    # Both also honour the basic feasibility property.
    assert all(r > 0.0 for r in fast.values())


@settings(max_examples=150, deadline=None)
@given(general_cases())
def test_fast_trusted_path_matches_validating_path(case):
    """validate=False (the Network's calling convention) must not change
    results on inputs that satisfy its contract."""
    flows, caps = case
    trusted = {
        fid: tuple(route) for fid, route in flows.items() if route
    }
    if not trusted:
        return
    assert fast_fair_rates(trusted, caps, validate=False) == fast_fair_rates(
        trusted, caps
    )


# ---------------------------------------------- hub: one PS link, closed form
@st.composite
def hub_cases(draw):
    """Incast to and/or broadcast from one hub (PS) link.

    Spokes carry up to ``n`` flows each. Spoke capacities are drawn free,
    tied *exactly* with the hub's share (``C_s/k == C_h/n``), or within a
    few ``_EPS`` of it, and capacities go down to 1e-12 so the near-tie
    guard's scale matters.
    """
    n = draw(st.integers(min_value=1, max_value=16))
    scale = draw(st.sampled_from([1e-12, 1e-9, 1.0, 1.25e9]))
    hub_cap = scale * draw(st.integers(min_value=1, max_value=64))
    direction = draw(st.sampled_from(["incast", "broadcast", "both"]))
    # Spread n flows over spokes, up to n flows on one spoke.
    spoke_of = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
    caps = {"up:ps": hub_cap, "down:ps": hub_cap}
    flows = {}
    for j, spoke in enumerate(spoke_of):
        incast = direction == "incast" or (direction == "both" and j % 2 == 0)
        flows[f"f{j}"] = (
            [f"up:{spoke}", "down:ps"] if incast else ["up:ps", f"down:{spoke}"]
        )
    hub_share = hub_cap / n
    for spoke in sorted(set(spoke_of)):
        k = spoke_of.count(spoke)
        kind = draw(st.sampled_from(["free", "tie", "near"]))
        if kind == "tie":
            # Exact whenever (m·k)/k rounds back to m (always for k = 1).
            spoke_cap = hub_share * k
        elif kind == "near":
            delta = draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) * _EPS
            spoke_cap = max((hub_share + delta) * k, 1e-12)
        else:
            spoke_cap = draw(
                st.floats(min_value=1e-12, max_value=1e10, allow_nan=False)
            )
        caps[f"up:{spoke}"] = caps[f"down:{spoke}"] = spoke_cap
    return flows, caps


@settings(max_examples=400, deadline=None)
@given(hub_cases())
def test_fast_bit_identical_on_hubs(case):
    flows, caps = case
    reference = max_min_fair_rates(flows, caps)
    assert fast_fair_rates(flows, caps) == reference
    assert fast_fair_rates(flows, caps, validate=False) == reference


@settings(max_examples=400, deadline=None)
@given(hub_cases())
def test_closed_form_share_matches_reference(case):
    """Whenever the precondition holds, every flow's reference rate is the
    closed-form share, bit for bit."""
    flows, caps = case
    load = {}
    for route in flows.values():
        for link in set(route):
            load[link] = load.get(link, 0) + 1
    share = single_bottleneck_share(load, caps, len(flows))
    if share is not None:
        assert set(max_min_fair_rates(flows, caps).values()) == {share}


@settings(max_examples=300, deadline=None)
@given(hub_cases(), st.randoms(use_true_random=False))
def test_prio_fast_bit_identical_on_hubs(case, rnd):
    flows, caps = case
    prios = {f: rnd.randrange(4) for f in flows}
    reference = prio_fair_rates(flows, caps, prios, solver=max_min_fair_rates)
    fast = prio_fair_rates(
        flows, caps, prios,
        solver=lambda r, c: fast_fair_rates(r, c, validate=False),
    )
    assert fast == reference


def test_closed_form_covers_plain_incast_and_refuses_two_hubs():
    caps = {"up:0": 10.0, "up:1": 10.0, "down:ps": 8.0, "up:ps": 8.0, "down:0": 10.0}
    incast = {"a": ["up:0", "down:ps"], "b": ["up:1", "down:ps"]}
    assert single_bottleneck_share({"up:0": 1, "up:1": 1, "down:ps": 2}, caps, 2) == 4.0
    assert fast_fair_rates(incast, caps) == {"a": 4.0, "b": 4.0}
    # Incast plus broadcast: no link carries every flow.
    assert single_bottleneck_share({"up:0": 1, "down:ps": 1, "up:ps": 1, "down:0": 1}, caps, 2) is None
    # A spoke tied exactly with the hub but carrying fewer flows: refuse.
    assert single_bottleneck_share({"up:0": 1, "down:ps": 2}, {"up:0": 4.0, "down:ps": 8.0}, 2) is None
    # A spoke within 2·_EPS above the hub share: refuse.
    near = 4e-12 + 1.5 * _EPS
    assert single_bottleneck_share({"up:0": 1, "down:ps": 2}, {"up:0": near, "down:ps": 8e-12}, 2) is None
