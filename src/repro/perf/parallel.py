"""Process-pool fan-out: one primitive, :func:`map_units`, and its adapters.

Every pooled stage runs through :func:`map_units`, a generator that maps
``task`` over a (possibly unbounded) stream of work units and owns what
every fan-out site needs:

* **Worker count** — :func:`resolve_workers`, then
  :func:`effective_workers`: clamped to the number of units (when the
  stream has a length) and always to the number of cores.  One
  effective worker is a plain serial loop in this process, no pool.
* **Per-process state** — an optional picklable ``setup`` callable runs
  once per worker (once in the parent on the serial path) and the task
  is called as ``task(state, unit)``.  Large inputs — a triple store —
  are opened *by path* there, so no column array is ever pickled
  across the process boundary.
* **Bounded submission** — at most ``2 * workers`` units are in flight,
  so unit generation overlaps worker execution and parent memory stays
  bounded on unbounded streams; results come back in submission order.
* **Telemetry** — the pool initializer ships the parent's enabled flag
  and :class:`~repro.obs.context.TraceContext`, each unit runs inside a
  ``pool/task`` span tallied by ``pool.tasks{kind,worker}``, and the
  worker's metric delta + finished span trees travel back with the
  result, merged/stitched in submission order — one coherent trace tree
  per run regardless of worker count.

The adapters shape one domain each onto it: :func:`run_isp_simulations`
(per-ISP event simulations, plan state grafted back onto the parent's
ISPs), :func:`collect_associations` (per-population CDN collection),
:func:`map_store_shards` (per-shard triple-store passes, scratch files
discarded on failure).  The store's per-shard finalize
(:func:`repro.store.triples.compact_shard`, behind every build and
every compaction) calls :func:`map_units` directly, shipping a shard
index per unit.

The determinism contract: a ``workers=N`` run is **bit-identical** to
the serial run.  That holds because

1. shared state (registry, routing table) is only mutated during ISP
   *construction*, which stays serial and in the original order;
2. each work unit is seeded independently of scheduling order, and
   results are merged back in submission order;
3. worker-side mutations of an ISP's address plans are shipped back and
   grafted onto the parent's objects, so post-build plan state matches
   the serial run exactly.

Anything unpicklable (e.g. an exotic user-supplied config) falls back
to the serial path — the fallback is a behaviour no-op by construction.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bgp.registry import Registry
from repro.bgp.table import RoutingTable
from repro.cdn.classify import PrefixClassifier
from repro.cdn.collector import CdnDataset, collect, merge_datasets
from repro.netsim.isp import Isp
from repro.netsim.sim import (
    IspSimulation,
    SimulationJob,
    SubscriberTimeline,
    run_simulation_job,
)
from repro.obs import (
    enable_telemetry,
    get_logger,
    get_registry,
    get_tracer,
    metric_inc,
    span,
    subtract_snapshots,
    telemetry_enabled,
)
from repro.obs.context import (
    TraceContext,
    adopt_worker_spans,
    context_attrs,
    current_trace_context,
    get_worker_context,
    set_worker_context,
)

_log = get_logger("perf.parallel")

#: Environment override for the default worker count ("auto" = one per core).
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit value, else ``$REPRO_WORKERS``, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip().lower()
        if not raw:
            return 1
        if raw in ("auto", "max"):
            return max(1, os.cpu_count() or 1)
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"${WORKERS_ENV} must be an integer, 'auto' or 'max', got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def effective_workers(workers: int, units: Optional[int]) -> int:
    """Workers actually worth spawning for ``units`` work items.

    Clamps the requested count to the number of units *and* to
    ``os.cpu_count()``; ``units=None`` stands for an unsized stream and
    clamps to the cores only.  With a single core (or a single unit)
    the pool only adds pickling overhead — the shipped baseline measured
    parallel builds at 0.48x serial on a 1-core host — so an effective
    count of 1 means "take the serial path".
    """
    limit = os.cpu_count() or 1
    if units is not None:
        limit = min(limit, units)
    return max(1, min(int(workers), limit))


def _fans_out(workers: Optional[int], units: int) -> bool:
    """Whether :func:`map_units` would start a pool for ``units`` units."""
    return effective_workers(resolve_workers(workers), units) > 1


def _mp_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _all_picklable(items: Sequence) -> bool:
    try:
        for item in items:
            # Round-trip: classes with custom immutability/__setattr__ can
            # dump fine yet explode on load inside a worker.
            pickle.loads(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return False
    return True


# ---------------------------------------------------------------------------
# The pool primitive
# ---------------------------------------------------------------------------

#: Worker-process state installed by :func:`_worker_init`: the leading
#: task arguments — ``(setup(),)`` with a ``setup``, else ``()``.
_WORKER_STATE: dict = {}


def _worker_init(
    setup, telemetry: bool, context: Optional[TraceContext] = None
) -> None:
    """Pool initializer: mirror the parent's telemetry + trace, run ``setup``.

    Under ``fork`` the child inherits the telemetry flag anyway; under
    ``spawn`` this is what turns the child's registry on.  When enabled,
    the inherited tracer is *detached* — a forked child starts with a
    copy of the parent's finished roots and open-span stack, neither of
    which this worker should re-ship — and the parent's
    :class:`~repro.obs.context.TraceContext` is installed so every span
    the worker records belongs to the parent's trace.
    """
    if telemetry:
        enable_telemetry()
        get_tracer().detach()
        set_worker_context(context)
    _WORKER_STATE["args"] = (setup(),) if setup is not None else ()


def _run_unit(payload):
    """Pool task: run one unit, capturing the worker's metric delta and spans.

    Returns ``(result, delta_or_None, spans_or_None)``.  The delta is
    the difference between the worker registry before and after the
    unit (a forked child starts with a *copy* of the parent's counts),
    so merging it in the parent never double-counts.  Each unit tallies
    ``pool.tasks{kind=,worker=}`` — the worker-utilization signal — and
    runs inside a ``pool/task`` span tagged with the propagated trace
    context; the span trees it finished are popped off the worker
    tracer and shipped back for the parent to stitch
    (:func:`repro.obs.context.adopt_worker_spans`).
    """
    task, kind, unit = payload
    args = (*_WORKER_STATE["args"], unit)
    if not telemetry_enabled():
        return task(*args), None, None
    registry = get_registry()
    tracer = get_tracer()
    baseline = len(tracer.roots)
    before = registry.snapshot()
    worker = os.getpid()
    metric_inc("pool.tasks", kind=kind, worker=worker)
    attrs = context_attrs(get_worker_context())
    with span("pool/task", kind=kind, worker=worker, **attrs):
        result = task(*args)
    delta = subtract_snapshots(registry.snapshot(), before)
    return result, delta, tracer.pop_roots(baseline)


def map_units(
    task,
    units: Iterable,
    *,
    kind: str,
    workers: Optional[int] = None,
    setup=None,
) -> Iterator:
    """Yield ``task(unit)`` — ``task(state, unit)`` with ``setup`` — per unit.

    ``task`` and ``setup`` must pickle by reference: module-level
    callables or ``functools.partial`` objects of them.  ``setup()``
    builds the per-process ``state`` once per worker, or once in this
    process on the serial path.  ``units`` may be a sized collection or
    an unbounded lazy stream: at most ``2 * workers`` units are pickled
    into the pool at once, and results come back in submission order
    regardless of completion order, with each worker's telemetry folded
    into the parent as its result drains.  ``kind`` labels the
    ``pool.tasks`` tally and ``pool/task`` spans.  A unit that raises
    propagates its exception; the stream is not consumed past the
    in-flight window.
    """
    size = len(units) if hasattr(units, "__len__") else None
    effective = effective_workers(resolve_workers(workers), size)
    if effective <= 1:
        args = (setup(),) if setup is not None else ()
        for unit in units:
            yield task(*args, unit)
        return
    _log.debug(
        "fanning out work units",
        extra={"kind": kind, "units": size, "workers": effective},
    )
    registry = get_registry()
    stream = iter(units)
    pending: deque = deque()
    with ProcessPoolExecutor(
        max_workers=effective,
        mp_context=_mp_context(),
        initializer=_worker_init,
        initargs=(setup, telemetry_enabled(), current_trace_context()),
    ) as pool:
        while True:
            for unit in itertools.islice(stream, 2 * effective - len(pending)):
                pending.append(pool.submit(_run_unit, (task, kind, unit)))
            if not pending:
                return
            result, delta, spans = pending.popleft().result()
            registry.merge(delta)
            adopt_worker_spans(spans)
            yield result


# ---------------------------------------------------------------------------
# Per-ISP simulation fan-out
# ---------------------------------------------------------------------------


def run_isp_simulations(
    jobs: Sequence[Tuple[Isp, int]],
    end_hour: float,
    seed: int,
    workers: int = 1,
) -> List[Dict[int, SubscriberTimeline]]:
    """Run ``IspSimulation(isp, count, end_hour, seed)`` for every job.

    Returns the timeline dicts in job order.  With ``workers > 1`` the
    simulations run in a process pool and each worker's post-run address
    plans are grafted back onto the parent's :class:`Isp` objects, so
    the outcome is bit-identical to the serial path.
    """
    if _fans_out(workers, len(jobs)):
        sim_jobs = [
            SimulationJob.from_isp(isp, count, end_hour, seed) for isp, count in jobs
        ]
        if _all_picklable(sim_jobs):
            results = list(
                map_units(run_simulation_job, sim_jobs, kind="isp_sim", workers=workers)
            )
            for (isp, _count), result in zip(jobs, results):
                result.graft_onto(isp)
            return [result.timelines for result in results]
        _log.debug("simulation jobs not picklable, using the serial path")
    return [
        IspSimulation(isp, count, end_hour, seed=seed).run() for isp, count in jobs
    ]


# ---------------------------------------------------------------------------
# Per-population CDN collection fan-out
# ---------------------------------------------------------------------------


def _collect_one_dataset(state: dict, population) -> CdnDataset:
    dataset = collect([population], **state)
    # The classifier only holds lookup caches over worker-side copies of
    # the table/registry; drop it rather than ship it back.
    dataset.classifier = None
    return dataset


def collect_associations(
    populations: Sequence,
    table: RoutingTable,
    registry: Registry,
    filter_asn_mismatch: bool = True,
    workers: int = 1,
) -> CdnDataset:
    """Parallel-aware :func:`repro.cdn.collector.collect`.

    Each population's triples are generated and classified in a worker
    (the routing table and registry pickle once per worker, not once per
    population), then the per-population datasets are merged in
    population order — yielding the exact per-AS triple lists of the
    serial path (serial collection appends population by population).
    """
    if _fans_out(workers, len(populations)) and _all_picklable(
        [table, registry, *populations]
    ):
        setup = partial(
            dict, table=table, registry=registry, filter_asn_mismatch=filter_asn_mismatch
        )
        merged = merge_datasets(
            list(
                map_units(
                    _collect_one_dataset,
                    populations,
                    kind="cdn_collect",
                    workers=workers,
                    setup=setup,
                )
            )
        )
        merged.classifier = PrefixClassifier(table, registry)
        return merged
    return collect(
        populations, table, registry, filter_asn_mismatch=filter_asn_mismatch
    )


# ---------------------------------------------------------------------------
# Zero-copy triple-store shard fan-out
# ---------------------------------------------------------------------------


def _discard_scratch_files(scratch) -> None:
    """Best-effort removal of the files inside a scratch directory.

    The directory itself is left in place — it belongs to the caller —
    but any partial per-shard outputs written before a failure are
    unlinked so a retried pass never memmaps stale runs.
    """
    if scratch is None:
        return
    try:
        children = list(Path(scratch).iterdir())
    except OSError:
        return
    for child in children:
        try:
            child.unlink()
        except OSError:
            pass


def map_store_shards(
    task, store, workers: Optional[int] = None, scratch=None
) -> List:
    """Run ``task(store, shard_index)`` over every shard of a triple store.

    ``task`` must be a module-level callable (or a ``functools.partial``
    of one) so it pickles by reference.  The handoff is zero-copy in
    both directions by convention: every process opens the store by
    its directory path (the :func:`map_units` ``setup``) and maps shard
    columns locally, and tasks should write any large intermediate
    arrays to scratch files for the parent to memmap, returning only
    small metadata.  Results come back in shard-index order, so the
    reduction is deterministic regardless of scheduling.

    ``scratch`` names the directory those intermediates land in: when a
    task raises, the files completed shards already wrote there are
    deleted before the exception propagates, instead of being leaked
    into the temp dir for the caller to trip over.
    """
    from repro.store.triples import TripleStore

    try:
        return list(
            map_units(
                task,
                range(store.shards),
                kind="store_shard",
                workers=workers,
                setup=partial(TripleStore.open, str(store.directory)),
            )
        )
    except Exception:
        _discard_scratch_files(scratch)
        raise


__all__ = [
    "WORKERS_ENV",
    "collect_associations",
    "effective_workers",
    "map_store_shards",
    "map_units",
    "resolve_workers",
    "run_isp_simulations",
]
