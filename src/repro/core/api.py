"""User-facing clustering entry points.

:func:`cluster` runs the configured algorithm end to end; the two
convenience wrappers mirror the paper's implementation names:

* :func:`correlation_clustering`  — PAR-CC / SEQ-CC;
* :func:`modularity_clustering`   — PAR-MOD / SEQ-MOD (vertex weights set
  to weighted degrees, ``lambda = gamma / (2 m_w)``, Section 2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import ClusteringConfig, Frontier, Mode, Objective
from repro.core.options import RunOptions
from repro.core.louvain_par import parallel_cc
from repro.core.louvain_seq import sequential_cc
from repro.core.objective import (
    intra_cluster_edge_weight,
    lambdacc_objective,
    modularity_graph,
    modularity_lambda,
)
from repro.core.result import ClusterResult
from repro.errors import InvariantViolation
from repro.graphs.csr import CSRGraph
from repro.graphs.stats import MemoryTracker
from repro.obs.instrument import (
    M_MODULARITY,
    M_OBJECTIVE,
    NULL_INSTRUMENTATION,
    Instrumentation,
)
from repro.parallel.scheduler import SimulatedScheduler
from repro.resilience.checkpoint import checkpoint_seed
from repro.resilience.context import ResilienceContext, ResiliencePolicy
from repro.utils.rng import make_rng, resolve_seed
from repro.utils.timing import WallTimer


def cluster(
    graph: CSRGraph,
    config: ClusteringConfig,
    options: Optional[RunOptions] = None,
) -> ClusterResult:
    """Cluster ``graph`` according to ``config``; see :class:`ClusterResult`.

    ``options`` bundles the execution context as a
    :class:`~repro.core.options.RunOptions` (DESIGN.md §14):

    * ``options.resilience`` attaches a
      :class:`~repro.resilience.context.ResiliencePolicy`: fault injection,
      invariant auditing, run budgets with graceful degradation, and
      checkpoint/resume.  A degraded run returns its best-so-far clustering
      with ``result.degraded`` set and the reasons in ``result.failure_log``
      instead of raising.
    * ``options.instrumentation`` attaches an
      :class:`~repro.obs.instrument.Instrumentation`: a structured trace of
      nested ``run → level → phase → round`` spans plus a metrics registry,
      exportable afterwards via ``instrumentation.write_trace()`` /
      ``write_metrics()``.  Absent or disabled, every hook is a no-op.
    * ``options.engine`` overrides the BEST-MOVES engine by registry name
      (see :data:`repro.core.engines.ENGINES`); by default
      ``config.parallel`` selects the paper's relaxed engine or the
      sequential baseline.
    * ``options.supervisor`` attaches a
      :class:`~repro.supervisor.RunSupervisor`: retry-with-resume, watchdog
      deadlines, and the fallback ladder (DESIGN.md §10), with every
      recovery decision in ``failure_log`` and ``extras["supervisor"]``.
    """
    opts = options if options is not None else RunOptions()
    resilience = opts.resilience
    instrumentation = opts.instrumentation
    engine = opts.engine
    # A run without a seed draws one here and records it, so the result
    # can be replayed; every supervised attempt shares it.  A resumed run
    # records the seed its checkpoint was written under.
    seed = config.seed
    if seed is None and resilience is not None and resilience.resume_from:
        seed = checkpoint_seed(resilience.resume_from)
    seed = resolve_seed(seed)
    if opts.supervisor is not None:
        return opts.supervisor.run(
            graph,
            config if config.seed is not None else config.with_options(seed=seed),
            resilience=resilience,
            instrumentation=instrumentation,
            engine=engine,
        )
    if graph.num_vertices == 0:
        raise ValueError("cannot cluster an empty graph")
    instr = (
        instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
    )
    if config.objective is Objective.MODULARITY:
        working = modularity_graph(graph)
        effective_lambda = modularity_lambda(graph, config.resolution)
        total_weight = graph.total_edge_weight
    else:
        working = graph
        effective_lambda = config.resolution
        total_weight = graph.total_edge_weight

    sched = SimulatedScheduler(
        num_workers=config.resolved_workers if config.parallel else 1,
        machine=config.machine,
        instr=instr,
    )
    memory = MemoryTracker()
    rng = make_rng(seed)
    ctx = (
        ResilienceContext(resilience, sched=sched, seed=seed)
        if resilience
        else None
    )
    if engine is not None:
        from functools import partial

        from repro.core.engines import multilevel_with_engine

        driver = partial(multilevel_with_engine, engine=engine)
    else:
        driver = parallel_cc if config.parallel else sequential_cc
    with instr.span(
        "run",
        algorithm=config.describe(),
        engine=engine,
        objective=config.objective.name.lower(),
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        resolution=config.resolution,
        seed=seed,
    ) as run_span:
        with WallTimer() as timer:
            assignments, stats = driver(
                working,
                effective_lambda,
                config,
                sched=sched,
                rng=rng,
                memory=memory,
                resilience=ctx,
            )
        # Record the worker-lane time charged after the last round.
        sched.round_barrier("run")
        _, dense = np.unique(assignments, return_inverse=True)
        dense = dense.astype(np.int64)
        return _finish_run(
            graph,
            working,
            config,
            resilience,
            instr,
            run_span,
            sched,
            memory,
            timer,
            ctx,
            dense,
            stats,
            effective_lambda,
            total_weight,
            seed,
        )


def _finish_run(
    graph,
    working,
    config,
    resilience,
    instr,
    run_span,
    sched,
    memory,
    timer,
    ctx,
    dense,
    stats,
    effective_lambda,
    total_weight,
    seed,
) -> ClusterResult:
    """Score, audit, and package one finished clustering run."""
    # The modularity graph shares the scored graph's edges and self-loops,
    # so both objectives add their own penalty to one intra-cluster weight.
    intra = intra_cluster_edge_weight(working, dense)
    f_value = lambdacc_objective(working, dense, effective_lambda, intra=intra)
    if config.objective is Objective.MODULARITY:
        mod_value = f_value / total_weight
    elif total_weight > 0 and (
        graph.weights.size == 0 or graph.weights.min() >= 0
    ):
        mod_graph = modularity_graph(graph)
        mod_f = lambdacc_objective(
            mod_graph, dense, modularity_lambda(graph, 1.0), intra=intra
        )
        mod_value = mod_f / total_weight
    else:
        # Signed or empty graphs: modularity undefined; report 0.
        mod_value = 0.0

    extras: dict = {}
    if getattr(graph, "repairs", None):
        extras["input_repairs"] = dict(graph.repairs)
    degraded = False
    failure_log: list = []
    if ctx is not None:
        if ctx.auditor is not None:
            issues = ctx.auditor.verify_result(
                working, dense, effective_lambda, f_value
            )
            if issues:
                message = "final result audit failed: " + "; ".join(issues)
                if resilience.strict:
                    raise InvariantViolation(message)
                ctx.degrade(message, kind="audit-failed")
        degraded = ctx.degraded
        failure_log = list(ctx.failure_log)
        if resilience.faults is not None:
            extras["fault_injections"] = dict(resilience.faults.counts)

    num_clusters = int(dense.max()) + 1 if dense.size else 0
    run_span.set(
        clusters=num_clusters,
        levels=stats.num_levels,
        rounds=stats.total_iterations,
        moves=stats.total_moves,
        objective=2.0 * f_value,
        modularity=mod_value,
        degraded=degraded,
    )
    instr.set_gauge(M_OBJECTIVE, f_value)
    instr.set_gauge(M_MODULARITY, mod_value)

    return ClusterResult(
        assignments=dense,
        objective=2.0 * f_value,
        f_objective=f_value,
        modularity=mod_value,
        resolution=config.resolution,
        effective_lambda=effective_lambda,
        config=config,
        stats=stats,
        ledger=sched.ledger,
        machine=config.machine,
        peak_memory_bytes=memory.peak_bytes,
        input_bytes=graph.nbytes,
        wall_seconds=timer.elapsed,
        seed=seed,
        degraded=degraded,
        failure_log=failure_log,
        extras=extras,
    )


def correlation_clustering(
    graph: CSRGraph,
    resolution: float = 0.01,
    parallel: bool = True,
    mode: Mode = Mode.ASYNC,
    frontier: Frontier = Frontier.VERTEX_NEIGHBORS,
    refine: bool = True,
    num_iter: Optional[int] = 10,
    num_workers: int = 60,
    seed: Optional[int] = None,
    **kwargs,
) -> ClusterResult:
    """Cluster under the LambdaCC correlation objective (PAR-CC / SEQ-CC).

    ``resolution`` is the paper's lambda: low values (e.g. 0.01) give few,
    large clusters; high values (e.g. 0.85) give many small clusters.
    ``num_iter=None`` runs to convergence (SEQ-CC^CON when
    ``parallel=False``).
    """
    config = ClusteringConfig(
        objective=Objective.CORRELATION,
        resolution=resolution,
        parallel=parallel,
        mode=mode,
        frontier=frontier,
        refine=refine,
        num_iter=num_iter,
        num_workers=num_workers,
        seed=seed,
        **kwargs,
    )
    return cluster(graph, config)


def modularity_clustering(
    graph: CSRGraph,
    gamma: float = 1.0,
    parallel: bool = True,
    mode: Mode = Mode.ASYNC,
    frontier: Frontier = Frontier.VERTEX_NEIGHBORS,
    refine: bool = True,
    num_iter: Optional[int] = 10,
    num_workers: int = 60,
    seed: Optional[int] = None,
    **kwargs,
) -> ClusterResult:
    """Cluster under Reichardt–Bornholdt modularity (PAR-MOD / SEQ-MOD).

    ``gamma = 1`` recovers Girvan–Newman modularity.  Internally this is
    the LambdaCC objective with ``k_v = d_v`` and
    ``lambda = gamma / (2 m_w)`` (Section 2).
    """
    config = ClusteringConfig(
        objective=Objective.MODULARITY,
        resolution=gamma,
        parallel=parallel,
        mode=mode,
        frontier=frontier,
        refine=refine,
        num_iter=num_iter,
        num_workers=num_workers,
        seed=seed,
        **kwargs,
    )
    return cluster(graph, config)
