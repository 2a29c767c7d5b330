"""The repository benchmark: host time of three canonical OSP simulations.

Usage (from the repository root):

    python3 perfbench/run.py --workload timing-osp-64 --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``; why each exists, and what every
metric means, is in ``README.md`` beside this file.

One client runs the workload as a closed loop in this process: build,
``run()``, check, and the next run starts when the previous one ends, for
``--seconds``. The loop is preceded by an untimed warm-up run of the
default seed, whose replay digest must equal the one in ``golden.json``.
Set-up time is measured separately in fresh interpreters (``probe.py``).

``--trace 0`` keeps tracing off and reports the end-to-end metrics.
``--trace 1`` cycles plain, sampled and span-traced runs of the same seed
and reports the per-layer metrics; its spans are written once, at the end,
to ``perfbench/out/``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it is the
full record: provenance, outputs (virtual seconds, digests) and samples.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS/OpenMP thread cap: numeric mode otherwise spreads its matrix math
#: over every core, which makes host time depend on what else the machine
#: is doing. Set before numpy is imported here or in any child process.
BLAS_THREADS = 1
_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in _BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)
#: Bytecode cache owned by this benchmark run, here and in every probe.
#: Python then never reads a ``__pycache__`` that tests or earlier CLI runs
#: left in the checkout, so set-up time does not depend on what ran before.
#: One untimed probe fills it; the timed probes import warm, as a CLI user's
#: second and later invocations do. It is removed when the run ends.
PYCACHE = HERE / "out" / f"pycache-{os.getpid()}"
os.environ["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.pycache_prefix = str(PYCACHE)
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import LayerStats, SpanRecorder, aggregate, installed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Outcome, Workload, check, outcome  # noqa: E402

#: Environment switches that select a non-default code path in the
#: simulator. A run with any ``REPRO_*`` variable set is labelled with it.
KILL_SWITCHES = (
    "REPRO_FLAT_ARENA",
    "REPRO_SCATTER",
    "REPRO_CONV",
    "REPRO_FAIRSHARE",
    "REPRO_NETPRIO",
)

#: fresh-interpreter set-up probes per benchmark run (median reported)
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


# -- provenance ---------------------------------------------------------------


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of every file under ``src/repro``: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    base = SRC / "repro"
    for path in sorted(base.rglob("*.py")):
        h.update(str(path.relative_to(base)).encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    uname = os.uname()
    switches = {name: os.environ.get(name) for name in KILL_SWITCHES}
    switches.update(
        {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    )
    set_ = sorted(k for k, v in switches.items() if v is not None)
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "host": uname.nodename,
        "kernel": uname.release,
        "machine": uname.machine,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "bytecode_cache": "private, warm",
        "seed": seed,
        "kill_switches": switches,
        "label": "main" if not set_ else "kill-switch:" + ",".join(
            f"{k}={switches[k]}" for k in set_
        ),
    }


# -- measurement --------------------------------------------------------------


def probe_setup(workload: Workload, seed: int) -> dict:
    """One fresh-interpreter set-up timing."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload.name, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Kinds of run. ``plain`` is what the end-to-end metrics time. ``sampled``
#: switches on the program's own ``enable_sampling()``, which is what
#: ``--trace`` and ``--dash`` users pay. ``traced`` adds the benchmark's span
#: wrappers on top, for the per-layer split.
PLAIN, SAMPLED, TRACED = "plain", "sampled", "traced"


@dataclass
class Rep:
    """One closed-loop run."""

    kind: str
    run_s: float = 0.0
    outcome: Outcome | None = None
    spans: SpanRecorder | None = None
    program_spans: int = 0


def run_once(workload: Workload, seed: int, kind: str) -> Rep:
    """Build, run and reduce one simulation; exceptions are the caller's."""
    rep = Rep(kind=kind)
    # Collect the previous run's garbage here, not inside the next timing.
    gc.collect()
    obj = workload.build(seed)
    if kind != PLAIN:
        obj.enable_sampling()
    if kind != TRACED:
        t0 = perf_counter()
        result = obj.run()
        rep.run_s = perf_counter() - t0
    else:
        rec = SpanRecorder()
        root = rec.name_id("run")
        with installed(rec):
            t0 = perf_counter()
            idx = rec.open(root)
            result = obj.run()
            rec.close(idx)
            rep.run_s = perf_counter() - t0
        rep.spans = rec
        rep.program_spans = len(result.tracer.spans)
    rep.outcome = outcome(result)
    return rep


def attempt(workload: Workload, seed: int, kind: str,
            expected_digest: str | None, failures: list) -> Rep | None:
    """One counted operation: a run that raises or fails its output check
    is recorded in ``failures`` and returns None."""
    try:
        rep = run_once(workload, seed, kind)
    except Exception:  # the loop must go on and count the failure
        failures.append({"seed": seed, "kind": kind,
                         "error": traceback.format_exc()})
        return None
    problems = check(workload, rep.outcome, expected_digest)
    if problems:
        failures.append({"seed": seed, "kind": kind,
                         "problems": problems, "digest": rep.outcome.digest})
        return None
    return rep


@dataclass
class Loop:
    """Everything one benchmark run measured."""

    attempted: int = 0
    canary: Rep | None = None
    reps: list[Rep] = field(default_factory=list)
    setups: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)


def closed_loop(workload: Workload, seed: int, seconds: float, trace: bool,
                gold: str, n_setups: int) -> Loop:
    """Bytecode warm-up probe and canary, then runs of ``seed`` until
    ``seconds`` have passed.

    Every run of ``seed`` must reproduce the first one's digest (and, for
    the default seed, the committed one). With ``trace`` the runs cycle
    plain, sampled, traced, and the loop ends on a whole cycle. The set-up
    probes are spread evenly over the loop, between runs, so that they
    sample the same stretch of host time as the runs.
    """
    loop = Loop()
    probe_setup(workload, seed)  # untimed: fills the private bytecode cache
    loop.canary = attempt(workload, DEFAULT_SEED, PLAIN, gold, loop.failures)
    loop.attempted = 1
    expected = gold if seed == DEFAULT_SEED else None
    kinds = (PLAIN, SAMPLED, TRACED) if trace else (PLAIN,)
    t0 = perf_counter()
    while True:
        while (len(loop.setups) < n_setups
               and perf_counter() - t0 >= len(loop.setups) * seconds / n_setups):
            loop.setups.append(probe_setup(workload, seed))
        for kind in kinds:
            rep = attempt(workload, seed, kind, expected, loop.failures)
            loop.attempted += 1
            if rep is not None:
                if expected is None:
                    expected = rep.outcome.digest
                loop.reps.append(rep)
        if perf_counter() - t0 >= seconds:
            break
    while len(loop.setups) < n_setups:
        loop.setups.append(probe_setup(workload, seed))
    return loop


# -- metrics ------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(workload: Workload, setups: list[dict], reps: list[Rep]) -> dict:
    setup_s = statistics.median(p["import_s"] + p["build_s"] for p in setups)
    run_s = statistics.median(r.run_s for r in reps) if reps else 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _metric(setup_s, "s"),
        "total_s": _metric(setup_s + run_s, "s"),
        "sim_iters_per_s": _metric(
            workload.expected_iters / run_s if run_s > 0 else 0.0, "1/s"
        ),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def layer_values(rep: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced run, from its spans and counters."""
    spans = rep.spans.spans()
    stats = aggregate(spans)

    def st(name):
        return stats.get(name, LayerStats())

    plain = [
        s for s in spans
        if s.name == "netsim.solve"
        and (s.parent < 0 or spans[s.parent].name != "netsim.prio_solve")
    ]
    iters = rep.outcome.iters
    rerates = rep.outcome.rerates
    return {
        "simcore.events": st("simcore.step").calls,
        "simcore.events_per_iter": st("simcore.step").calls / iters,
        "simcore.step_self_s": st("simcore.step").self_s,
        "netsim.transfers": st("netsim.transfer").calls,
        "netsim.transfer_s": st("netsim.transfer").self_s,
        "netsim.solves": len(plain),
        "netsim.solve_s": sum(s.end - s.start for s in plain),
        "netsim.solve_flows": sum(s.work for s in plain)
        + st("netsim.prio_solve").work,
        "netsim.prio_solves": st("netsim.prio_solve").calls,
        "netsim.prio_solve_s": st("netsim.prio_solve").total_s,
        "netsim.rerates": rerates,
        "netsim.rerate_skipped": rep.outcome.rerate_skipped,
        "netsim.rerate_skip_ratio": (
            rep.outcome.rerate_skipped / rerates if rerates else 0.0
        ),
        "sync.synchronize_self_s": st("sync.synchronize").self_s,
        "sync.transfers_per_iter": st("netsim.transfer").calls / iters,
        "core.pgp_s": st("core.pgp").total_s,
        "core.pgp_calls": st("core.pgp").calls,
        "core.lgp_s": st("core.lgp").total_s,
        "engines.compute_s": st("engines.compute").total_s,
        "engines.compute_calls": st("engines.compute").calls,
        "engines.eval_s": st("engines.eval").total_s,
        "engines.sync_replica_s": st("engines.sync_replica").total_s,
        "cluster.ps_accumulate_s": st("cluster.ps_accumulate").total_s,
        "cluster.ps_apply_s": st("cluster.ps_apply").total_s,
        "autograd.backward_s": st("autograd.backward").total_s,
        "multijob.view_transfer_s": st("multijob.view_transfer").self_s,
        "obs.tracer_s": st("obs.tracer").total_s,
        "obs.sampler_s": st("obs.sampler").total_s,
        "obs.spans": rep.program_spans,
    }


#: unit of every per-layer metric
LAYER_UNITS = {
    "startup.import_s": "s",
    "startup.build_s": "s",
    "simcore.events": "count",
    "simcore.events_per_iter": "count",
    "simcore.step_self_s": "s",
    "netsim.transfers": "count",
    "netsim.transfer_s": "s",
    "netsim.solves": "count",
    "netsim.solve_s": "s",
    "netsim.solve_flows": "count",
    "netsim.prio_solves": "count",
    "netsim.prio_solve_s": "s",
    "netsim.rerates": "count",
    "netsim.rerate_skipped": "count",
    "netsim.rerate_skip_ratio": "ratio",
    "sync.synchronize_self_s": "s",
    "sync.transfers_per_iter": "count",
    "core.pgp_s": "s",
    "core.pgp_calls": "count",
    "core.lgp_s": "s",
    "engines.compute_s": "s",
    "engines.compute_calls": "count",
    "engines.eval_s": "s",
    "engines.sync_replica_s": "s",
    "cluster.ps_accumulate_s": "s",
    "cluster.ps_apply_s": "s",
    "autograd.backward_s": "s",
    "multijob.view_transfer_s": "s",
    "obs.tracer_s": "s",
    "obs.sampler_s": "s",
    "obs.spans": "count",
    "obs.overhead_ratio": "ratio",
    "obs.overhead_s": "s",
}


def per_layer(setups: list[dict], reps: list[Rep]) -> dict:
    """Medians over the traced runs. The obs overhead compares the sampled
    runs, which carry no span wrappers, with the plain runs of the seed."""
    traced = [r for r in reps if r.kind == TRACED]
    sampled = [r for r in reps if r.kind == SAMPLED]
    plain = [r for r in reps if r.kind == PLAIN]
    values: dict[str, float] = {
        "startup.import_s": statistics.median(p["import_s"] for p in setups),
        "startup.build_s": statistics.median(p["build_s"] for p in setups),
    }
    if traced:
        per_run = [layer_values(r) for r in traced]
        for name in per_run[0]:
            values[name] = statistics.median(v[name] for v in per_run)
    if sampled and plain:
        t = statistics.median(r.run_s for r in sampled)
        u = statistics.median(r.run_s for r in plain)
        values["obs.overhead_ratio"] = t / u
        values["obs.overhead_s"] = t - u
    return {
        name: _metric(values.get(name, 0.0), unit)
        for name, unit in LAYER_UNITS.items()
    }


def write_spans(path: Path, workload: Workload, seed: int, reps: list[Rep]) -> None:
    """All traced runs' spans, once, as gzipped JSON (times in seconds from
    each run's first span)."""
    runs = []
    for r in reps:
        if r.spans is None:
            continue
        rec = r.spans
        t0 = rec.starts[0] if len(rec) else 0.0
        runs.append({
            "names": rec.names,
            "columns": ["name", "start", "end", "parent", "work"],
            "spans": [
                [n, s - t0, e - t0, p, w]
                for n, s, e, p, w in zip(
                    rec.name_ids, rec.starts, rec.ends, rec.parents, rec.works
                )
            ],
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": workload.name, "seed": seed, "runs": runs}, fh)


# -- entry point --------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the timed closed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", type=Path, default=HERE / "golden.json",
                    help="committed default-seed digests")
    ap.add_argument("--out", type=Path, default=HERE / "out",
                    help="directory for span files of traced runs")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    golden = json.loads(args.golden.read_text())
    if "digest" not in golden.get(workload.name, {}):
        raise BenchError(f"{args.golden} has no digest for {workload.name}")

    loop = closed_loop(workload, args.seed, args.seconds, bool(args.trace),
                       golden[workload.name]["digest"], SETUP_PROBES)
    reps = loop.reps
    record = {
        "record": "perfbench/1",
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "outputs": {
            "virtual_s": reps[0].outcome.virtual_s if reps else None,
            "digest": reps[0].outcome.digest if reps else None,
            "default_seed_digest": (
                loop.canary.outcome.digest if loop.canary else None
            ),
        },
        "samples": {
            "setup": loop.setups,
            "run_s": [r.run_s for r in reps if r.kind == PLAIN],
            "sampled_run_s": [r.run_s for r in reps if r.kind == SAMPLED],
            "traced_run_s": [r.run_s for r in reps if r.kind == TRACED],
        },
        "failures": loop.failures,
    }
    if args.trace:
        metrics = per_layer(loop.setups, reps)
        spans_path = args.out / f"spans-{workload.name}-seed{args.seed}.json.gz"
        write_spans(spans_path, workload, args.seed, reps)
        record["spans_file"] = str(spans_path)
    else:
        metrics = end_to_end(workload, loop.setups, reps)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    finally:
        shutil.rmtree(PYCACHE, ignore_errors=True)
