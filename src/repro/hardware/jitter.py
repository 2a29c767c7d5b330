"""Compute-time jitter and straggler models.

Real clusters never execute identical iterations in identical time:
OS noise, thermal throttling, interfering jobs and data-loading hiccups
spread iteration times. This spread is what makes BSP's global barrier
expensive — each iteration costs the *max* over workers — and is the
mechanism behind the paper's Fig. 1/Fig. 2 contrast and the ``T_ASP`` up to
6× smaller than ``T_BSP`` observation (§2.1.2, citing Sync-Switch).

All models are deterministic given their seed.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np


class JitterModel(Protocol):
    """Maps a nominal iteration time to a realised one, per worker/iter."""

    def sample(self, base_time: float, worker: int, iteration: int) -> float:
        """Realised compute time for this worker at this iteration."""
        ...


class NoJitter:
    """Idealised homogeneous cluster: realised time == nominal time."""

    def sample(self, base_time: float, worker: int, iteration: int) -> float:
        return base_time


class LognormalJitter:
    """Multiplicative lognormal noise, the standard straggler model.

    ``realised = base × exp(N(0, sigma))``, normalised so the *median*
    equals the nominal time. ``sigma≈0.2`` gives mild OS noise; ``0.5``
    gives the heavy-tailed stragglers that make barriers hurt.

    Each worker ``w`` owns one stream, seeded ``SeedSequence([seed, w])``
    and created on the worker's first ask, so any worker count works.
    Draws are sequential per worker: the n-th distinct iteration a worker
    asks for gets the n-th draw of its stream. Results therefore do not
    depend on how asks of *different* workers interleave, but they do
    depend on the order in which one worker asks for its iterations (the
    trainer asks in increasing order).

    A re-ask of one of a worker's last :attr:`CACHE_DEPTH` iterations
    returns the cached draw; the cache holds no more than that per worker.
    Asking for an iteration at or below one already evicted raises
    ``ValueError`` rather than consuming a fresh draw, which would silently
    differ from the first answer.

    ``n_workers`` is the minimum number of streams :meth:`state_dict`
    records (higher workers' streams appear once asked), which keeps the
    checkpoint layout of runs with up to 64 workers unchanged.
    """

    #: Cached draws kept per worker.
    CACHE_DEPTH = 64

    def __init__(self, sigma: float = 0.2, seed: int = 0, n_workers: int = 64) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = float(sigma)
        self.seed = int(seed)
        self.n_workers = int(n_workers)
        self._streams: dict[int, np.random.Generator] = {}
        #: worker -> {iteration: factor} for its latest asks, oldest first.
        self._cache: dict[int, dict[int, float]] = {}
        #: worker -> newest iteration evicted from its cache.
        self._evicted: dict[int, int] = {}

    def _stream(self, worker: int) -> np.random.Generator:
        gen = self._streams.get(worker)
        if gen is None:
            if worker < 0:
                raise ValueError(f"worker must be >= 0, got {worker}")
            gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([self.seed, worker]))
            )
            self._streams[worker] = gen
        return gen

    def sample(self, base_time: float, worker: int, iteration: int) -> float:
        cache = self._cache.get(worker)
        if cache is None:
            cache = self._cache[worker] = {}
        factor = cache.get(iteration)
        if factor is None:
            evicted = self._evicted.get(worker)
            if evicted is not None and iteration <= evicted:
                raise ValueError(
                    f"jitter for worker {worker} iteration {iteration} is no "
                    f"longer cached (CACHE_DEPTH={self.CACHE_DEPTH})"
                )
            factor = float(np.exp(self._stream(worker).normal(0.0, self.sigma)))
            cache[iteration] = factor
            if len(cache) > self.CACHE_DEPTH:
                oldest = next(iter(cache))
                del cache[oldest]
                self._evicted[worker] = (
                    oldest if evicted is None else max(oldest, evicted)
                )
        return base_time * factor

    def state_dict(self) -> dict:
        """Serialisable per-worker RNG stream state (for checkpointing).

        ``streams[w]`` is worker ``w``'s stream state, for every worker
        below ``max(n_workers, highest worker asked + 1)``.
        """
        n = max([self.n_workers] + [w + 1 for w in self._streams])
        return {
            "kind": "lognormal",
            "streams": [self._stream(w).bit_generator.state for w in range(n)],
        }

    def load_state(self, state: dict) -> None:
        """Restore stream state captured by :meth:`state_dict`.

        Any stream count loads; workers beyond the saved list start from
        their seeded initial state on their first ask.
        """
        streams = state.get("streams")
        if not isinstance(streams, list):
            raise ValueError("jitter state has no 'streams' list")
        self._streams.clear()
        for worker, saved in enumerate(streams):
            self._stream(worker).bit_generator.state = saved
        self._cache.clear()
        self._evicted.clear()


class PersistentStraggler:
    """Some workers are permanently slow (e.g. a thermally-throttled node).

    Wraps an inner model; workers in ``slow_workers`` get their realised
    times multiplied by ``slow_factor``.
    """

    def __init__(
        self,
        slow_workers: Sequence[int],
        slow_factor: float = 2.0,
        inner: JitterModel | None = None,
    ) -> None:
        if slow_factor < 1.0:
            raise ValueError(f"slow_factor must be >= 1, got {slow_factor}")
        self.slow_workers = frozenset(int(w) for w in slow_workers)
        self.slow_factor = float(slow_factor)
        self.inner = inner or NoJitter()

    def sample(self, base_time: float, worker: int, iteration: int) -> float:
        t = self.inner.sample(base_time, worker, iteration)
        if worker in self.slow_workers:
            t *= self.slow_factor
        return t

    def state_dict(self) -> dict:
        inner = getattr(self.inner, "state_dict", None)
        return {"kind": "straggler-wrap", "inner": inner() if inner is not None else None}

    def load_state(self, state: dict) -> None:
        if state.get("inner") is not None:
            self.inner.load_state(state["inner"])


__all__ = ["JitterModel", "LognormalJitter", "NoJitter", "PersistentStraggler"]
