"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

* ``cluster``  — cluster a graph (edge-list file, named surrogate, or the
  karate club) with PAR-CC/SEQ-CC/PAR-MOD/SEQ-MOD and print the result
  summary; optionally write the labels to a file (one per line);
* ``generate`` — write a synthetic graph (rMAT / planted / surrogate) as
  an edge list, plus its ground-truth communities when available;
* ``evaluate`` — score a labels file against a communities file
  (precision/recall) and/or a labels file (ARI/NMI);
* ``sweep``    — sweep the resolution and print precision/recall per point
  (the Figure 9/10 methodology on your own data);
* ``hierarchy`` — print the multilevel coarsening hierarchy of one run;
* ``consensus`` — cluster several seeds and write the consensus labels;
* ``table1``   — print the surrogate dataset table;
* ``chaos``    — run the supervised chaos matrix (fault kind x site x
  engine) and assert the recovery invariants;
* ``doctor``   — health-check a finished run from its artifacts
  (registry record, trace, metrics, stats) against declarative health
  rules and serving SLOs; exit 1 on any crit finding;
* ``update`` / ``serve`` — dynamic clustering behind the serving
  gateway (DESIGN.md §11, §14);
* ``obs``      — the Chrome/Perfetto timeline of a trace, trace
  validation, and the runs registry (``obs report`` / ``obs diff``).

Exit codes across the gate-like commands follow one convention:
0 = pass, 1 = gate failure (crit finding, regression, audit issue),
2 = usage or unreadable-input error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.api import cluster
from repro.core.options import RunOptions
from repro.errors import ConfigError, ReproError
from repro.core.config import ClusteringConfig, Frontier, Mode, Objective
from repro.eval.ari import adjusted_rand_index
from repro.eval.ground_truth import average_precision_recall
from repro.eval.nmi import normalized_mutual_information
from repro.generators.planted import planted_partition_graph
from repro.generators.rmat import rmat_graph
from repro.generators.snap_like import SNAP_SURROGATES, load_snap_surrogate, surrogate_table
from repro.graphs.io import (
    read_communities,
    read_edge_list,
    read_labels,
    read_metis,
    write_communities,
    write_edge_list,
    write_labels,
)
from repro.graphs.karate import karate_club_graph


def _load_graph(args) -> "object":
    sources = [bool(args.input), bool(args.surrogate), args.karate]
    if sum(sources) != 1:
        raise SystemExit("choose exactly one of --input / --surrogate / --karate")
    if args.input:
        if str(args.input).endswith((".graph", ".metis")):
            return read_metis(args.input)
        return read_edge_list(
            args.input, on_malformed=getattr(args, "on_malformed", "strict")
        )
    if args.surrogate:
        return load_snap_surrogate(args.surrogate, seed=args.seed or 0).graph
    return karate_club_graph()


def _write_labels(labels: np.ndarray, path: str) -> None:
    with open(path, "w") as handle:
        for label in labels.tolist():
            handle.write(f"{label}\n")


def _read_labels(path: str) -> np.ndarray:
    with open(path) as handle:
        return np.asarray(
            [int(line.strip()) for line in handle if line.strip()], dtype=np.int64
        )


def _resilience_policy(args):
    """Build a ResiliencePolicy from the cluster subcommand's flags."""
    from repro.resilience import FaultPlan, ResiliencePolicy, RunBudget

    faults = None
    if args.inject is not None:
        faults = FaultPlan.from_spec(args.inject, seed=args.fault_seed)
    budget = None
    if any(
        value is not None
        for value in (
            args.time_budget, args.max_moves, args.max_rounds,
            args.run_deadline, args.level_deadline,
        )
    ):
        budget = RunBudget(
            max_sim_seconds=args.time_budget,
            max_wall_seconds=args.run_deadline,
            max_moves=args.max_moves,
            max_rounds=args.max_rounds,
            max_level_wall_seconds=args.level_deadline,
        )
    wants_resilience = (
        faults is not None
        or budget is not None
        or args.audit
        or args.checkpoint
        or args.resume
    )
    if not wants_resilience:
        return None
    return ResiliencePolicy(
        faults=faults,
        budget=budget,
        audit=args.audit,
        strict=args.strict,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume,
    )


def _supervisor(args):
    """Build a RunSupervisor when any supervision flag is present."""
    wants_supervision = (
        args.supervise
        or args.max_attempts is not None
        or args.run_deadline is not None
        or args.level_deadline is not None
    )
    if not wants_supervision:
        return None
    from repro.supervisor import RunSupervisor

    return RunSupervisor(
        max_attempts=args.max_attempts if args.max_attempts is not None else 3,
        checkpoint_dir=args.checkpoint_dir,
    )


def _instrumentation(args):
    """Build an Instrumentation when any observability flag is present."""
    profile = args.profile or bool(args.profile_json)
    if not (args.trace or args.metrics or profile):
        return None
    from repro.obs.instrument import Instrumentation

    return Instrumentation(profile=profile)


def _graph_name(args) -> str:
    """A short workload identifier for the run registry."""
    if args.input:
        return Path(args.input).name
    if args.surrogate:
        return f"surrogate:{args.surrogate}"
    return "karate"


def _round_quantiles(instr) -> List[tuple]:
    """(metric label, p50, p95) rows from the run's round histograms."""
    from repro.obs.instrument import M_FRONTIER, M_ROUND_GAIN

    rows = []
    for title, name in (
        ("round gain", M_ROUND_GAIN),
        ("frontier size", M_FRONTIER),
    ):
        metric = instr.metrics.get(name)
        if metric is None:
            continue
        for sample in metric.samples():
            labels = sample["labels"]
            engine = labels.get("engine", "?")
            rows.append(
                (
                    f"{title} [{engine}]",
                    metric.quantile(0.5, **labels),
                    metric.quantile(0.95, **labels),
                )
            )
    return rows


def _profile_payload(result, instr, top: int) -> dict:
    """The --profile content as a JSON-ready dict (for --profile-json)."""
    payload = {
        "levels": [
            {
                "level": idx,
                "vertices": lv.num_vertices,
                "rounds": lv.iterations + lv.refine_iterations,
                "moves": lv.moves + lv.refine_moves,
                "wall_seconds": lv.wall_seconds,
                "refine_wall_seconds": lv.refine_wall_seconds,
            }
            for idx, lv in enumerate(result.stats.levels)
        ],
        "top_regions": [
            {"label": label, "work": work, "share": share}
            for label, work, share in result.ledger.profile(top=top)
        ],
        "round_quantiles": [
            {"metric": name, "p50": p50, "p95": p95}
            for name, p50, p95 in _round_quantiles(instr)
        ],
        "stats": result.stats_dict(),
    }
    return payload


def _write_profile_json(result, instr, path, top: int) -> None:
    import json

    with open(path, "w") as handle:
        json.dump(_profile_payload(result, instr, top), handle, indent=2,
                  default=str)
        handle.write("\n")


def _print_profile(result, instr, top: int = 8) -> None:
    """--profile: per-level timings, top ledger regions, round quantiles."""
    print("per-level profile:")
    print(
        f"  {'level':>5} {'vertices':>9} {'rounds':>7} {'moves':>8} "
        f"{'wall_s':>9} {'refine_s':>9}"
    )
    for idx, lv in enumerate(result.stats.levels):
        print(
            f"  {idx:>5} {lv.num_vertices:>9} "
            f"{lv.iterations + lv.refine_iterations:>7} "
            f"{lv.moves + lv.refine_moves:>8} {lv.wall_seconds:>9.4f} "
            f"{lv.refine_wall_seconds:>9.4f}"
        )
    print(f"top {top} regions by simulated work:")
    for label, work, share in result.ledger.profile(top=top):
        print(f"  {label:<24} {work:>14.4g} {share:>6.1%}")
    quantiles = _round_quantiles(instr)
    if quantiles:
        print("round distributions (bucket-interpolated):")
        for name, p50, p95 in quantiles:
            print(f"  {name:<28} p50={p50:>12.6g} p95={p95:>12.6g}")


def _cmd_cluster(args) -> int:
    graph = _load_graph(args)
    config = ClusteringConfig.from_args(args)
    instr = _instrumentation(args)
    result = cluster(
        graph,
        config,
        RunOptions(
            resilience=_resilience_policy(args),
            instrumentation=instr,
            engine=args.engine,
            supervisor=_supervisor(args),
        ),
    )
    print(result.summary())
    for line in result.failure_log:
        print(f"  ! {line}", file=sys.stderr)
    if "supervisor" in result.extras:
        meta = result.extras["supervisor"]
        print(
            f"  supervised: rung={meta['rung']} attempts={meta['attempts']} "
            f"retries={meta['retries']} fallbacks={meta['fallbacks']} "
            f"watchdog_fires={meta['watchdog_fires']}"
            + (" SALVAGED" if meta["salvaged"] else ""),
            file=sys.stderr,
        )
    if "input_repairs" in result.extras:
        repairs = result.extras["input_repairs"]
        print(
            "  input repairs: "
            + " ".join(f"{k}={v}" for k, v in sorted(repairs.items())),
            file=sys.stderr,
        )
    if "fault_injections" in result.extras:
        tally = result.extras["fault_injections"]
        injected = " ".join(f"{k}={v}" for k, v in sorted(tally.items()))
        print(f"  faults injected: {injected or 'none'}", file=sys.stderr)
    if args.checkpoint and Path(args.checkpoint).exists():
        print(f"checkpoint written to {args.checkpoint}")
    if args.output:
        _write_labels(result.assignments, args.output)
        print(f"labels written to {args.output}")
    if args.output_labels:
        write_labels(result.assignments, args.output_labels)
        print(f"vertex/cluster labels written to {args.output_labels}")
    if instr is not None:
        if args.trace:
            instr.write_trace(args.trace)
            print(f"trace written to {args.trace}")
        if args.metrics:
            instr.write_metrics(args.metrics)
            print(f"metrics written to {args.metrics}")
        if args.profile:
            _print_profile(result, instr, top=args.profile_top)
        if args.profile_json:
            _write_profile_json(result, instr, args.profile_json,
                                top=args.profile_top)
            print(f"profile written to {args.profile_json}")
    if args.register:
        from repro.obs.registry import append_run, make_run_record

        run_id = args.run_id or f"run-{int(time.time())}"
        record = make_run_record(
            result, run_id=run_id, graph=_graph_name(args), engine=args.engine,
        )
        append_run(args.register, record)
        print(f"registered {run_id} in {args.register}")
    if args.doctor:
        from repro.obs.doctor import DoctorInputs, cluster_decomposition

        decomposition = None
        if config.objective is Objective.CORRELATION:
            # The per-cluster split is only exact for the λ-objective;
            # modularity runs rescore a degree-reweighted graph.
            decomposition = cluster_decomposition(
                graph, result.assignments, float(result.resolution)
            )
        record = history = None
        if args.register:
            from repro.obs.registry import load_runs

            records = load_runs(args.register)
            if records:
                record = records[-1]
                history = _registry_history(records, record)
        inputs = DoctorInputs(
            stats=result.stats_dict(),
            trace=list(instr.tracer.records) if instr is not None else None,
            metric_samples=instr.metrics.collect() if instr is not None else None,
            record=record,
            history=history,
            decomposition=decomposition,
            iteration_cap=None if args.converge else args.num_iter,
        )
        return _doctor_verdict(inputs)
    return 0


def _dynamic_config(args) -> ClusteringConfig:
    """The correlation-only config shared by ``update`` and ``serve``.

    Must be flag-compatible with the ``cluster`` subcommand so a snapshot
    written after ``repro cluster --output-labels`` + ``repro update``
    restores under the same ``config_tag``.  Both directions now ride the
    :meth:`ClusteringConfig.add_args`/:meth:`~ClusteringConfig.from_args`
    round-trip, so compatibility is structural.
    """
    return ClusteringConfig.from_args(args, objective=Objective.CORRELATION)


def _dynamic_guard(args):
    from repro.dynamic import DriftGuard

    return DriftGuard(
        max_drift=args.guard_drift,
        recompute_every=args.guard_every,
        max_frontier_fraction=args.guard_frontier,
    )


def _load_dynamic(args, config, store):
    """Build the DynamicClusterer from a snapshot, labels, or bootstrap."""
    from repro.dynamic import DynamicClusterer, load_snapshot

    guard = _dynamic_guard(args)
    instr = _instrumentation(args)
    if args.snapshot:
        return load_snapshot(
            args.snapshot, config, engine=args.engine, guard=guard,
            instrumentation=instr,
        )
    has_source = bool(args.input) or bool(args.surrogate) or args.karate
    if has_source:
        graph = _load_graph(args)
        if args.labels:
            assignments = read_labels(args.labels, num_vertices=graph.num_vertices)
            return DynamicClusterer(
                graph, assignments, config, engine=args.engine, guard=guard,
                instrumentation=instr,
            )
        print("bootstrapping: clustering the input graph first", file=sys.stderr)
        return DynamicClusterer.bootstrap(
            graph, config, engine=args.engine, guard=guard, instrumentation=instr,
        )
    if store is not None and store.latest() is not None:
        return store.load(
            config, engine=args.engine, guard=guard, instrumentation=instr,
        )
    raise SystemExit(
        "choose a state source: --snapshot FILE, a graph source "
        "(--input/--surrogate/--karate, optionally with --labels), or a "
        "--snapshot-dir holding a previous save"
    )


def _dynamic_graph_name(args) -> str:
    if args.snapshot:
        return f"snapshot:{Path(args.snapshot).name}"
    if args.input or args.surrogate or args.karate:
        return _graph_name(args)
    return f"snapshot-dir:{Path(args.snapshot_dir).name}"


def _cmd_update(args) -> int:
    from repro.dynamic import SnapshotStore, read_update_log, save_snapshot
    from repro.serving import GatewayPolicy, Request, ServingGateway
    from repro.serving.session import commit_staged

    config = _dynamic_config(args)
    store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir else None
    clusterer = _load_dynamic(args, config, store)
    updates = read_update_log(args.updates)
    batch_size = args.batch_size if args.batch_size else max(len(updates), 1)
    # Batches commit through the gateway, so instrumented sessions
    # populate the per-op SLO latency histograms (commit/save).
    gateway = ServingGateway(
        clusterer, GatewayPolicy(write_queue_limit=batch_size)
    )
    start = time.perf_counter()
    for first in range(0, len(updates), batch_size):
        now = time.perf_counter() - start
        for rid in range(first, min(first + batch_size, len(updates))):
            request = Request.write(rid, updates[rid], submitted_at=now)
            gateway.stage_write(request, now)
        report = commit_staged(gateway, time.perf_counter() - start)
        counts = " ".join(
            f"{op}={k}" for op, k in report.op_counts.items() if k
        )
        line = (
            f"batch {report.batch_index}: updates={report.num_updates} "
            f"({counts}) seed={report.seed_size} rounds={report.iterations} "
            f"moves={report.moves} evals={report.candidate_evaluations} "
            f"f={report.f_objective:.9g}"
        )
        if report.drift is not None:
            line += f" drift={report.drift:.3g}"
        if report.escalated:
            line += f" ESCALATED={report.escalated}"
        print(line)
    wall = time.perf_counter() - start
    stats = clusterer.stats()
    print(
        f"final: n={stats['num_vertices']} m={stats['num_edges']} "
        f"clusters={stats['num_clusters']} f={stats['f_objective']:.9g} "
        f"batches={stats['batches_applied']} moves={stats['moves_applied']} "
        f"escalations={stats['escalations']}"
    )
    if args.audit:
        issues = clusterer.audit()
        if issues:
            for issue in issues:
                print(f"  ! audit: {issue}", file=sys.stderr)
            return 1
        print("audit: clean")
    if args.output_labels:
        write_labels(clusterer.state.assignments, args.output_labels)
        print(f"vertex/cluster labels written to {args.output_labels}")
    if store is not None:
        slot = gateway.save(store)
        print(f"snapshot rotated into {slot}")
    if args.save_snapshot:
        save_snapshot(args.save_snapshot, clusterer)
        print(f"snapshot written to {args.save_snapshot}")
    if clusterer.instr.enabled:
        if args.trace:
            clusterer.instr.write_trace(args.trace)
            print(f"trace written to {args.trace}")
        if args.metrics:
            clusterer.instr.write_metrics(args.metrics)
            print(f"metrics written to {args.metrics}")
    if args.register:
        from repro.core.objective import modularity
        from repro.obs.registry import append_run, make_record

        try:
            mod = modularity(clusterer.graph, clusterer.state.assignments)
        except (ValueError, ReproError):
            mod = 0.0
        run_id = args.run_id or f"update-{int(time.time())}"
        record = make_record(
            run_id,
            workload={
                "graph": _dynamic_graph_name(args),
                "engine": clusterer.engine_name,
                "objective": "correlation",
                "resolution": float(clusterer.resolution),
                "seed": clusterer.config.seed,
                "workers": int(config.resolved_workers),
                "update_batch": {
                    "batches": stats["batches_applied"],
                    "updates": stats["updates_applied"],
                    "batch_size": batch_size,
                    "escalations": stats["escalations"],
                },
            },
            metrics={
                "wall_seconds": wall,
                "sim_time_seconds": stats["sim_seconds"],
                "f_objective": stats["f_objective"],
                "modularity": float(mod),
            },
            info={
                "num_clusters": stats["num_clusters"],
                "moves": stats["moves_applied"],
            },
        )
        append_run(args.register, record)
        print(f"registered {run_id} in {args.register}")
    if args.doctor or args.slo:
        from repro.obs.doctor import DoctorInputs
        from repro.obs.health import load_slo

        record = history = None
        if args.register:
            from repro.obs.registry import load_runs

            records = load_runs(args.register)
            if records:
                record = records[-1]
                history = _registry_history(records, record)
        instr = clusterer.instr
        inputs = DoctorInputs(
            trace=list(instr.tracer.records) if instr.enabled else None,
            metric_samples=instr.metrics.collect() if instr.enabled else None,
            record=record,
            history=history,
            # Re-read: the post-save staleness reset must reach the facts.
            dynamic_stats=clusterer.stats(),
            slo=load_slo(args.slo) if args.slo else None,
        )
        return _doctor_verdict(inputs)
    return 0


def _cmd_serve(args) -> int:
    """Drive the serving gateway: a scripted session or a generated workload."""
    from repro.dynamic import SnapshotStore
    from repro.serving import (
        GatewayPolicy,
        ServingGateway,
        ThreadedDriver,
        WorkloadSpec,
        replay_digests,
    )

    config = _dynamic_config(args)
    store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir else None
    clusterer = _load_dynamic(args, config, store)
    policy = GatewayPolicy(
        write_queue_limit=args.write_queue_limit,
        max_batch_updates=args.max_batch_updates,
        commit_interval_seconds=args.commit_interval,
    )
    if args.script:
        from repro.serving.session import run_session

        with ServingGateway(clusterer, policy) as gateway:
            with open(args.script) as handle:
                script = handle.readlines()
            for line in run_session(gateway, script, store=store):
                print(line)
        return 0
    # Bootstrap state, captured before any commit: the serial-replay
    # equivalence check re-applies the committed batches from here.
    graph0 = clusterer.graph
    labels0 = clusterer.state.assignments.copy()
    workload = WorkloadSpec(
        num_requests=args.requests,
        read_fraction=args.read_fraction,
        arrival=args.arrival,
        rate=args.rate,
        clients=args.clients,
        think_seconds=args.think,
        seed=args.workload_seed,
    )
    requests = workload.generate(graph0.num_vertices)
    instr = clusterer.instr if clusterer.instr.enabled else None
    gateway = ServingGateway(clusterer, policy)
    driver = ThreadedDriver(num_threads=args.threads, time_scale=args.time_scale)
    result = driver.run(gateway, requests)
    summary = result.summary()
    counts = summary["counts"]
    print(
        f"threads={args.threads} requests={summary['num_requests']} "
        f"makespan={summary['makespan_seconds']:.4f}s "
        f"epochs={gateway.epoch.index} commits={len(gateway.committed)}"
    )
    for klass in ("read", "write"):
        row = counts[klass]
        print(
            f"  {klass:<5} ok={row['ok']} shed={row['shed']} "
            f"expired={row['expired']} rejected={row['rejected']}"
        )
    if summary["read_p95_seconds"] is not None:
        print(
            f"  read p50={summary['read_p50_seconds']:.6f}s "
            f"p95={summary['read_p95_seconds']:.6f}s "
            f"throughput={summary['read_throughput_rps']:.1f} req/s"
        )
    exit_code = 0
    issues = result.check_accounting(gateway)
    if issues:
        for issue in issues:
            print(f"  ! accounting: {issue}", file=sys.stderr)
        exit_code = 1
    else:
        print("accounting: every request resolved (no silent drops)")
    if args.verify_replay:
        replayed = replay_digests(
            graph0,
            labels0,
            clusterer.config,
            gateway.committed_batches(),
            engine=clusterer.engine_name,
            guard=_dynamic_guard(args),
        )
        if replayed == gateway.epoch_log:
            print(
                f"replay: {len(gateway.epoch_log)} epoch digests "
                "bit-identical to serial re-application"
            )
        else:
            print("  ! replay: committed epochs DIVERGE from serial replay",
                  file=sys.stderr)
            exit_code = 1
    if instr is not None:
        if args.trace:
            clusterer.instr.write_trace(args.trace)
            print(f"trace written to {args.trace}")
        if args.metrics:
            clusterer.instr.write_metrics(args.metrics)
            print(f"metrics written to {args.metrics}")
    if args.doctor or args.slo:
        from repro.obs.doctor import DoctorInputs
        from repro.obs.health import load_slo

        inputs = DoctorInputs(
            trace=list(clusterer.instr.tracer.records) if instr else None,
            metric_samples=clusterer.instr.metrics.collect() if instr else None,
            dynamic_stats=clusterer.stats(),
            gateway_stats=gateway.stats(),
            slo=load_slo(args.slo) if args.slo else None,
        )
        doctor_code = _doctor_verdict(inputs)
        exit_code = max(exit_code, doctor_code)
    return exit_code


def _cmd_generate(args) -> int:
    if args.kind == "rmat":
        graph = rmat_graph(args.scale, args.edges or 5 * 2**args.scale, seed=args.seed)
        write_edge_list(graph, args.output)
        print(f"rmat: n={graph.num_vertices} m={graph.num_edges} -> {args.output}")
        return 0
    if args.kind == "planted":
        part = planted_partition_graph(
            num_vertices=args.vertices,
            intra_degree=args.intra_degree,
            inter_degree=args.inter_degree,
            seed=args.seed,
        )
    elif args.kind == "lfr":
        from repro.generators.lfr import lfr_like_graph

        part = lfr_like_graph(
            num_vertices=args.vertices, mixing=args.mixing, seed=args.seed
        )
    elif args.kind == "surrogate":
        if not args.name:
            raise SystemExit("--name required for --kind surrogate")
        part = load_snap_surrogate(args.name, seed=args.seed or 0)
    else:
        raise SystemExit(f"unknown kind {args.kind}")
    write_edge_list(part.graph, args.output)
    print(
        f"{part.name}: n={part.graph.num_vertices} m={part.graph.num_edges} "
        f"-> {args.output}"
    )
    if args.communities:
        write_communities(part.communities, args.communities)
        print(f"{part.num_communities} communities -> {args.communities}")
    return 0


def _cmd_evaluate(args) -> int:
    labels = _read_labels(args.labels)
    if args.communities:
        communities = read_communities(args.communities)
        pr = average_precision_recall(labels, communities)
        print(f"precision={pr.precision:.4f} recall={pr.recall:.4f} f1={pr.f1:.4f}")
    if args.reference:
        reference = _read_labels(args.reference)
        if reference.size != labels.size:
            raise SystemExit(
                f"label files disagree in length: {labels.size} vs {reference.size}"
            )
        print(f"ARI={adjusted_rand_index(labels, reference):.4f}")
        print(f"NMI={normalized_mutual_information(labels, reference):.4f}")
    if not args.communities and not args.reference:
        raise SystemExit("provide --communities and/or --reference")
    return 0


def _cmd_table1(_args) -> int:
    print(f"{'graph':<14}{'vertices':>10}{'edges':>12}")
    for name, n, m in surrogate_table(seed=0):
        print(f"{name:<14}{n:>10}{m:>12}")
    return 0


def _cmd_report(args) -> int:
    from repro.eval.conductance import conductance_summary
    from repro.eval.report import cluster_report

    graph = _load_graph(args)
    labels = _read_labels(args.labels)
    if labels.size != graph.num_vertices:
        raise SystemExit(
            f"labels file has {labels.size} entries for a graph of "
            f"{graph.num_vertices} vertices"
        )
    communities = read_communities(args.communities) if args.communities else None
    report = cluster_report(
        graph, labels, resolution=args.resolution, communities=communities
    )
    conductance = conductance_summary(graph, labels)
    print(f"clusters:            {report.num_clusters}")
    print(f"max cluster size:    {report.max_cluster_size}")
    print(f"mean cluster size:   {report.mean_cluster_size:.2f}")
    print(f"singleton fraction:  {report.singleton_fraction:.3f}")
    print(f"intra-edge fraction: {report.intra_edge_fraction:.3f}")
    print(f"CC objective:        {report.cc_objective:.6g}")
    print(f"modularity:          {report.modularity:.4f}")
    print(f"mean conductance:    {conductance['mean']:.4f}")
    if report.precision is not None:
        print(f"precision:           {report.precision:.4f}")
        print(f"recall:              {report.recall:.4f}")
        print(f"f1:                  {report.f1:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    graph = _load_graph(args)
    communities = read_communities(args.communities) if args.communities else None
    resolutions = [float(tok) for tok in args.resolutions.split(",")]
    header = f"{'resolution':>10} {'clusters':>9} {'objective':>12}"
    if communities:
        header += f" {'precision':>10} {'recall':>8} {'f1':>8}"
    print(header)
    for resolution in resolutions:
        config = ClusteringConfig(
            objective=Objective(args.objective),
            resolution=resolution,
            seed=args.seed,
        )
        result = cluster(graph, config)
        line = (
            f"{resolution:>10g} {result.num_clusters:>9} "
            f"{result.objective:>12.4g}"
        )
        if communities:
            pr = average_precision_recall(result.assignments, communities)
            line += f" {pr.precision:>10.4f} {pr.recall:>8.4f} {pr.f1:>8.4f}"
        print(line)
    return 0


def _cmd_hierarchy(args) -> int:
    from repro.core.hierarchy import cluster_hierarchy

    graph = _load_graph(args)
    config = ClusteringConfig(
        objective=Objective(args.objective),
        resolution=args.resolution,
        seed=args.seed,
    )
    hierarchy = cluster_hierarchy(graph, config)
    print(f"{'level':>5} {'clusters':>9} {'objective':>12}")
    for level in hierarchy.levels:
        print(
            f"{level.level:>5} {level.num_clusters:>9} {level.objective:>12.4g}"
        )
    print(f"nested: {hierarchy.is_nested()}")
    return 0


def _cmd_consensus(args) -> int:
    from repro.eval.consensus import consensus_from_runs

    graph = _load_graph(args)

    def run(seed: int) -> np.ndarray:
        config = ClusteringConfig(
            objective=Objective(args.objective),
            resolution=args.resolution,
            seed=seed,
        )
        return cluster(graph, config).assignments

    labels = consensus_from_runs(
        graph, run, num_runs=args.runs, threshold=args.threshold
    )
    print(f"consensus over {args.runs} runs: {int(labels.max()) + 1} clusters")
    if args.output:
        _write_labels(labels, args.output)
        print(f"labels written to {args.output}")
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.core.engines import ENGINES
    from repro.resilience.chaos import chaos_matrix
    from repro.resilience.faults import FaultKind

    graph = _load_graph(args)
    config = ClusteringConfig(
        resolution=args.resolution,
        num_workers=args.workers,
        num_iter=args.num_iter,
    )
    kinds = None
    if args.kinds:
        kinds = []
        for token in args.kinds.split(","):
            try:
                kinds.append(FaultKind(token.strip()))
            except ValueError:
                raise ConfigError(
                    f"unknown fault kind {token.strip()!r}; "
                    f"available: {sorted(k.value for k in FaultKind)}"
                ) from None
    engines = None
    if args.engines:
        engines = [token.strip() for token in args.engines.split(",")]
        unknown = [name for name in engines if name not in ENGINES]
        if unknown:
            raise ConfigError(
                f"unknown engine {unknown[0]!r}; available: {sorted(ENGINES)}"
            )
    report = chaos_matrix(
        graph,
        config,
        engines=engines,
        kinds=kinds,
        rate=args.rate,
        max_injections=args.max_injections,
        seed=args.seed,
        tolerance=args.tolerance,
        check_replay=not args.no_replay,
    )
    print(report.summary())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def _load_metric_samples(path) -> List[dict]:
    """Exported metric samples from a --metrics file (JSONL or Prometheus)."""
    from repro.obs.metrics import MetricsRegistry, samples_from_prometheus

    text = Path(path).read_text()
    if str(path).endswith((".json", ".jsonl")):
        return MetricsRegistry.parse_jsonl(text)
    return samples_from_prometheus(text)


def _load_stats_payload(path) -> dict:
    """A stats dict from a JSON file (raw stats_dict or --profile-json)."""
    import json

    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ReproError(f"{path}: stats file must hold a JSON object")
    if isinstance(payload.get("stats"), dict):
        return payload["stats"]  # a --profile-json payload
    return payload


def _registry_history(records, record) -> List[dict]:
    """Records before ``record`` with the same workload (trend baselines).

    Prints how many earlier records were left out and which workload
    keys set them apart, so a changed workload field cannot empty the
    trend history unseen.
    """
    workload = record.get("workload") or {}
    history, left_out, keys = [], 0, set()
    for other in records:
        if other is record:
            break
        theirs = other.get("workload") or {}
        if theirs == workload:
            history.append(other)
            continue
        left_out += 1
        keys.update(
            k for k in set(theirs) | set(workload)
            if (k in theirs, theirs.get(k)) != (k in workload, workload.get(k))
        )
    if left_out:
        print(
            f"history: {left_out} of {left_out + len(history)} earlier "
            f"records left out; their workload differs in: "
            f"{', '.join(sorted(keys))}"
        )
    return history


def _doctor_verdict(inputs, rules_path=None, json_path=None) -> int:
    """Shared tail of every doctor surface: diagnose, print, gate."""
    from repro.obs.doctor import diagnose
    from repro.obs.health import load_rules

    rules = load_rules(rules_path) if rules_path else None
    doctor = diagnose(inputs, rules=rules)
    print(doctor.report.describe())
    if doctor.slo_rows:
        print("serving SLOs (p95 vs target):")
        for row in doctor.slo_rows:
            # Ops without a target (e.g. audit) are reported, not gated.
            target = "-" if row["target"] is None else f"{row['target']:g}s"
            print(
                f"  {row['op']:<8} ops={row['count']:<6} "
                f"p50={row['p50']:.6g}s p95={row['p95']:.6g}s "
                f"target={target} [{row['severity'] or 'ungated'}]"
            )
    if json_path:
        import json

        with open(json_path, "w") as handle:
            json.dump(doctor.as_dict(), handle, indent=2, default=str)
            handle.write("\n")
        print(f"doctor verdict written to {json_path}")
    return doctor.report.exit_code


def _cmd_doctor(args) -> int:
    from repro.obs.doctor import DoctorInputs, load_trace
    from repro.obs.health import load_slo
    from repro.obs.registry import RunRegistryError, find_run, load_runs

    record = None
    history: Optional[List[dict]] = None
    try:
        if args.run_id or args.last:
            if not args.runs:
                print(
                    "error: a run id (or --last) needs --runs REGISTRY",
                    file=sys.stderr,
                )
                return 2
            records = load_runs(args.runs)
            if args.last:
                if not records:
                    print(f"error: {args.runs} is empty", file=sys.stderr)
                    return 2
                record = records[-1]
            else:
                record = find_run(records, args.run_id)
            history = _registry_history(records, record)
        stats = _load_stats_payload(args.stats) if args.stats else None
        trace = load_trace(args.trace) if args.trace else None
        samples = _load_metric_samples(args.metrics) if args.metrics else None
        slo = load_slo(args.slo) if args.slo else None
    except (OSError, ValueError, RunRegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if record is None and stats is None and trace is None and samples is None:
        print(
            "error: nothing to diagnose — give a run id with --runs, or "
            "--stats/--trace/--metrics artifact files",
            file=sys.stderr,
        )
        return 2
    inputs = DoctorInputs(
        stats=stats,
        trace=trace,
        metric_samples=samples,
        record=record,
        history=history,
        iteration_cap=args.iteration_cap,
        slo=slo,
    )
    return _doctor_verdict(inputs, rules_path=args.rules, json_path=args.json)


def _cmd_obs_timeline(args) -> int:
    from repro.obs.schema import TraceSchemaError
    from repro.obs.timeline import write_chrome_trace

    out = args.out or str(Path(args.trace).with_suffix(".chrome.json"))
    try:
        document = write_chrome_trace(args.trace, out)
    except TraceSchemaError as exc:
        for problem in exc.problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 2
    events = document["traceEvents"]
    lanes = {e["tid"] for e in events if e.get("pid") == 1 and e["ph"] == "X"}
    spans = sum(1 for e in events if e.get("pid") == 0 and e["ph"] == "X")
    print(
        f"timeline written to {out} ({spans} spans, "
        f"{len(lanes)} worker lanes)"
    )
    return 0


def _cmd_obs_validate_trace(args) -> int:
    from repro.obs.schema import TraceSchemaError, validate_trace_file

    try:
        validate_trace_file(args.trace)
    except TraceSchemaError as exc:
        for problem in exc.problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    print(f"{args.trace}: valid trace")
    return 0


def _cmd_obs_report(args) -> int:
    from repro.obs.registry import RunRegistryError, load_runs

    try:
        records = load_runs(args.runs)
    except (OSError, RunRegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.last is not None:
        records = records[-args.last:]
    id_width = max([len("run_id")] + [len(r["run_id"]) for r in records])
    print(
        f"{'run_id':<{id_width}} {'graph':<18} {'engine':<10} {'res':>6} "
        f"{'wall_s':>8} {'sim_s':>10} {'f_objective':>12} {'modularity':>10}"
    )
    for record in records:
        workload = record["workload"]
        metrics = record["metrics"]
        degraded = " DEGRADED" if record.get("info", {}).get("degraded") else ""
        print(
            f"{record['run_id']:<{id_width}} {workload['graph']:<18} "
            f"{workload['engine']:<10} {workload['resolution']:>6g} "
            f"{metrics['wall_seconds']:>8.3f} "
            f"{metrics['sim_time_seconds']:>10.4g} "
            f"{metrics['f_objective']:>12.6g} "
            f"{metrics['modularity']:>10.4f}{degraded}"
        )
    return 0


def _cmd_obs_diff(args) -> int:
    from repro.obs.registry import (
        OBJECTIVE_TOLERANCE,
        WALL_TOLERANCE,
        RunRegistryError,
        diff_runs,
        find_run,
        load_runs,
    )

    try:
        records = load_runs(args.runs)
        baseline = find_run(records, args.baseline)
        current = find_run(records, args.current)
    except (OSError, RunRegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = diff_runs(
        baseline,
        current,
        wall_tolerance=(
            WALL_TOLERANCE if args.wall_tolerance is None
            else args.wall_tolerance
        ),
        objective_tolerance=(
            OBJECTIVE_TOLERANCE if args.objective_tolerance is None
            else args.objective_tolerance
        ),
    )
    print(f"diff {args.baseline} -> {args.current}")
    print(report.describe())
    if report.compared == 0:
        # Nothing was actually gated — treat a vacuous diff as a failure
        # rather than a silent pass (exit codes: 0 pass, 1 gate failure,
        # 2 usage/data error).
        print("error: no metrics were comparable", file=sys.stderr)
        return 1
    return 0 if report.ok else 1


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (a usage error, exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel correlation clustering (VLDB 2021) reproduction CLI",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="re-raise repro errors with a full traceback instead of a "
             "one-line message",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a graph")
    p.add_argument("--input", help="edge-list file (u v [w] per line)")
    p.add_argument(
        "--surrogate", choices=sorted(SNAP_SURROGATES), help="named surrogate graph"
    )
    p.add_argument("--karate", action="store_true", help="use the karate club graph")
    ClusteringConfig.add_args(p)
    p.add_argument("--output", help="write labels (one per line)")
    p.add_argument("--output-labels", metavar="PATH",
                   help="write 'vertex<TAB>cluster' lines (round-trips "
                        "into 'repro update --labels' without pickles)")
    p.add_argument("--on-malformed", choices=["strict", "repair"],
                   default="strict",
                   help="edge-list inputs: reject defects (strict) or drop "
                        "self-loops / merge duplicate edges and report the "
                        "counts (repair); NaN/inf weights always reject")
    r = p.add_argument_group("resilience")
    r.add_argument("--audit", action="store_true",
                   help="audit state invariants at level boundaries and "
                        "on the final result")
    r.add_argument("--strict", action="store_true",
                   help="raise typed errors instead of degrading gracefully")
    r.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                   help="cap on simulated seconds; on exhaustion return the "
                        "best-so-far clustering flagged degraded")
    r.add_argument("--max-moves", type=int, default=None,
                   help="cap on total vertex moves")
    r.add_argument("--max-rounds", type=int, default=None,
                   help="cap on total best-move rounds")
    r.add_argument("--checkpoint", metavar="PATH",
                   help="write a resumable .npz checkpoint at level boundaries")
    r.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="checkpoint every N levels (default 1)")
    r.add_argument("--resume", metavar="PATH",
                   help="resume bit-identically from a checkpoint file")
    r.add_argument("--inject", metavar="SPEC",
                   help="inject concurrency faults, e.g. "
                        "'stale-read=0.2,cas-fail=0.1,drop-move' "
                        "(bare kind = default rate)")
    r.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault-injection schedule")
    s = p.add_argument_group("supervision")
    s.add_argument("--supervise", action="store_true",
                   help="run under the self-healing supervisor: retry with "
                        "resume-from-checkpoint, then descend the fallback "
                        "ladder (sequential engine, graceful), salvaging "
                        "best-so-far as a last resort")
    s.add_argument("--max-attempts", type=int, default=None, metavar="N",
                   help="supervisor attempts per ladder rung (default 3; "
                        "implies --supervise)")
    s.add_argument("--run-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock cap on the whole supervised run, "
                        "all attempts included (implies --supervise)")
    s.add_argument("--level-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock cap per engine invocation "
                        "(implies --supervise)")
    s.add_argument("--checkpoint-dir", metavar="DIR",
                   help="directory for the supervisor's rotating "
                        "checkpoint slots (default: a temp dir)")
    o = p.add_argument_group("observability")
    o.add_argument("--engine", choices=["relaxed", "prefix", "colored",
                                        "event", "sequential"],
                   help="override the BEST-MOVES engine (default: relaxed "
                        "for PAR, sequential for SEQ)")
    o.add_argument("--trace", metavar="FILE",
                   help="write the run's nested span trace as JSONL "
                        "(run -> level -> phase -> round)")
    o.add_argument("--metrics", metavar="FILE",
                   help="write run metrics; .json/.jsonl gets JSONL, "
                        "anything else Prometheus text format")
    o.add_argument("--profile", action="store_true",
                   help="print a per-level timing table, the top "
                        "simulated-work regions, and p50/p95 round "
                        "distributions")
    o.add_argument("--profile-top", type=int, default=8, metavar="N",
                   help="how many ledger regions --profile shows "
                        "(default 8)")
    o.add_argument("--profile-json", metavar="FILE",
                   help="write the profile as JSON (implies collecting "
                        "profile data even without --profile)")
    o.add_argument("--register", metavar="RUNS_JSONL",
                   help="append this run's metrics to the runs registry "
                        "(see 'repro obs diff')")
    o.add_argument("--run-id", metavar="ID",
                   help="registry id for --register (default: run-<time>)")
    o.add_argument("--doctor", action="store_true",
                   help="run the health-rule doctor on this run's "
                        "artifacts after clustering; exit 1 on any crit "
                        "finding (see 'repro doctor')")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("generate", help="generate a synthetic graph")
    p.add_argument("--kind", choices=["rmat", "planted", "lfr", "surrogate"],
                   required=True)
    p.add_argument("--output", required=True, help="edge-list output path")
    p.add_argument("--communities", help="ground-truth communities output path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=10, help="rmat: log2(num vertices)")
    p.add_argument("--edges", type=int, help="rmat: number of edges")
    p.add_argument("--vertices", type=int, default=1000, help="planted: vertex count")
    p.add_argument("--intra-degree", type=float, default=8.0)
    p.add_argument("--mixing", type=float, default=0.2, help="lfr: mu")
    p.add_argument("--inter-degree", type=float, default=2.0)
    p.add_argument("--name", help="surrogate: graph name")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="score a clustering")
    p.add_argument("--labels", required=True, help="labels file (one per line)")
    p.add_argument("--communities", help="SNAP-format ground-truth communities")
    p.add_argument("--reference", help="reference labels file (ARI/NMI)")
    p.set_defaults(func=_cmd_evaluate)

    def add_graph_source(p):
        p.add_argument("--input", help="edge-list file (u v [w] per line)")
        p.add_argument(
            "--surrogate", choices=sorted(SNAP_SURROGATES),
            help="named surrogate graph",
        )
        p.add_argument("--karate", action="store_true",
                       help="use the karate club graph")
        p.add_argument(
            "--objective", choices=[o.value for o in Objective],
            default="correlation",
        )
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sweep", help="precision/recall over a resolution sweep")
    add_graph_source(p)
    p.add_argument("--resolutions", default="0.01,0.05,0.1,0.3,0.5,0.8",
                   help="comma-separated resolutions")
    p.add_argument("--communities", help="ground-truth communities file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("hierarchy", help="print the coarsening hierarchy")
    add_graph_source(p)
    p.add_argument("--resolution", type=float, default=0.05)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("consensus", help="consensus clustering over seeds")
    add_graph_source(p)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--runs", type=int, default=10,
                   help="number of seeds (the paper repeats 10x)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--output", help="write consensus labels")
    p.set_defaults(func=_cmd_consensus)

    p = sub.add_parser("report", help="quality report for a labels file")
    add_graph_source(p)
    p.add_argument("--labels", required=True, help="labels file (one per line)")
    p.add_argument("--resolution", type=float, default=0.01)
    p.add_argument("--communities", help="ground-truth communities file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("table1", help="print the surrogate dataset table")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser(
        "chaos",
        help="supervised chaos matrix: inject faults across engines, "
             "assert every cell recovers",
    )
    add_graph_source(p)
    p.add_argument("--resolution", type=float, default=0.01)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--num-iter", type=int, default=10)
    p.add_argument("--engines", metavar="LIST",
                   help="comma-separated engine names (default: all five)")
    p.add_argument("--kinds", metavar="LIST",
                   help="comma-separated fault kinds (default: transient,"
                        "dup-move,cas-fail,delay-frontier)")
    p.add_argument("--rate", type=float, default=0.3,
                   help="per-draw injection probability (default 0.3)")
    p.add_argument("--max-injections", type=int, default=6,
                   help="cap on injections per cell, guaranteeing the "
                        "hazard eventually stops firing (default 6)")
    p.add_argument("--tolerance", type=float, default=0.15,
                   help="relative objective tolerance vs the fault-free "
                        "baseline (default 0.15)")
    p.add_argument("--no-replay", action="store_true",
                   help="skip the checkpoint replay bit-identity check")
    p.add_argument("--json", metavar="FILE",
                   help="also write the full report as JSON")
    p.set_defaults(func=_cmd_chaos, seed=1)

    def add_dynamic_flags(p):
        """State source + config flags shared by update/serve."""
        p.add_argument("--snapshot", metavar="FILE",
                       help="restore live state from a snapshot .npz")
        p.add_argument("--snapshot-dir", metavar="DIR",
                       help="two-slot rotating SnapshotStore directory "
                            "(state source when no --snapshot/graph given; "
                            "always a save target)")
        p.add_argument("--input", help="edge-list file (u v [w] per line)")
        p.add_argument("--surrogate", choices=sorted(SNAP_SURROGATES),
                       help="named surrogate graph")
        p.add_argument("--karate", action="store_true",
                       help="use the karate club graph")
        p.add_argument("--labels", metavar="PATH",
                       help="start from a 'vertex<TAB>cluster' labels file "
                            "(as written by cluster --output-labels) "
                            "instead of re-clustering the graph source")
        p.add_argument("--on-malformed", choices=["strict", "repair"],
                       default="strict")
        ClusteringConfig.add_args(p, include_objective=False)
        p.add_argument("--engine", choices=["relaxed", "prefix", "colored",
                                            "event", "sequential"],
                       help="override the refinement engine (snapshots "
                            "default to the engine they were written with)")
        g = p.add_argument_group("drift guard")
        g.add_argument("--guard-every", type=int, default=16, metavar="N",
                       help="exact objective recompute every N batches "
                            "(0 disables; default 16)")
        g.add_argument("--guard-drift", type=float, default=1e-6,
                       metavar="EPS",
                       help="relative drift beyond which the guard "
                            "escalates to full re-clustering (default 1e-6)")
        g.add_argument("--guard-frontier", type=float, default=0.5,
                       metavar="FRAC",
                       help="escalate when one refinement round swept more "
                            "than this fraction of the graph (default 0.5)")

    p = sub.add_parser(
        "update",
        help="replay a JSONL edge-update log against a live clustering "
             "(localized refinement; see DESIGN.md §11)",
    )
    add_dynamic_flags(p)
    p.add_argument("--updates", required=True, metavar="JSONL",
                   help="update log: one {\"op\",\"u\",\"v\",\"weight\"} "
                        "object per line")
    p.add_argument("--batch-size", type=int, default=None, metavar="N",
                   help="apply updates in batches of N (default: one batch)")
    p.add_argument("--audit", action="store_true",
                   help="StateAuditor pass over the final state "
                        "(non-zero exit on issues)")
    p.add_argument("--output-labels", metavar="PATH",
                   help="write final 'vertex<TAB>cluster' labels")
    p.add_argument("--save-snapshot", metavar="FILE",
                   help="write the final state as a snapshot .npz")
    p.add_argument("--trace", metavar="FILE",
                   help="write the session's span trace (one 'update' span "
                        "per batch) as JSONL")
    p.add_argument("--metrics", metavar="FILE",
                   help="write repro_dynamic_* metrics; .json/.jsonl gets "
                        "JSONL, anything else Prometheus text")
    p.add_argument("--register", metavar="RUNS_JSONL",
                   help="append this session to the runs registry with "
                        "workload.update_batch tags")
    p.add_argument("--run-id", metavar="ID",
                   help="registry id for --register (default: update-<time>)")
    p.add_argument("--doctor", action="store_true",
                   help="run the doctor on the session: health rules plus "
                        "serving SLOs when instrumented; exit 1 on crit")
    p.add_argument("--slo", metavar="FILE",
                   help="serving SLO spec JSON for --doctor (default: "
                        "built-in targets; implies --doctor)")
    p.set_defaults(func=_cmd_update, profile=False, profile_json=None)

    p = sub.add_parser(
        "serve",
        help="drive the serving gateway: snapshot-isolated reads "
             "served beside coalesced update commits, with staged "
             "writes shed past a queue limit (DESIGN.md §14)",
    )
    add_dynamic_flags(p)
    p.add_argument("--script", metavar="FILE",
                   help="run a scripted session instead of a generated "
                        "workload, one command per line (get/same/members/"
                        "stats/insert/delete/reweight/commit/save/audit); "
                        "prints one deterministic line per command")
    w = p.add_argument_group("workload")
    w.add_argument("--requests", type=int, default=500, metavar="N",
                   help="total requests to generate (default 500)")
    w.add_argument("--read-fraction", type=float, default=0.9,
                   metavar="FRAC",
                   help="fraction of requests that are reads (default 0.9)")
    w.add_argument("--arrival", choices=["open", "closed"], default="open",
                   help="open-loop Poisson arrivals at --rate, or "
                        "closed-loop clients pacing themselves")
    w.add_argument("--rate", type=float, default=2000.0, metavar="RPS",
                   help="open-loop offered load in requests/second")
    w.add_argument("--clients", type=int, default=8,
                   help="logical clients pacing a closed-loop workload "
                        "(default 8)")
    w.add_argument("--think", type=float, default=0.002, metavar="SECONDS",
                   help="closed-loop per-client think time")
    w.add_argument("--workload-seed", type=int, default=0,
                   help="workload generator seed (deterministic streams)")
    g = p.add_argument_group("gateway policy")
    g.add_argument("--write-queue-limit", type=int, default=1024,
                   metavar="N",
                   help="staged writes beyond this are shed (default 1024)")
    g.add_argument("--max-batch-updates", type=int, default=0, metavar="N",
                   help="coalesced updates per commit; excess waits for "
                        "the next cycle (0 = unbounded)")
    g.add_argument("--commit-interval", type=float, default=0.1,
                   metavar="SECONDS",
                   help="seconds between commit cycles (default 0.1)")
    d = p.add_argument_group("driver")
    d.add_argument("--threads", type=int, default=4, metavar="N",
                   help="client threads submitting the workload beside "
                        "the one commit thread (default 4)")
    d.add_argument("--time-scale", type=float, default=0.0,
                   metavar="FACTOR",
                   help="submit each request at its generated arrival "
                        "time times FACTOR wall seconds after the start "
                        "(0 = submit at full speed)")
    p.add_argument("--verify-replay", action="store_true",
                   help="re-apply the committed batches serially from the "
                        "bootstrap state and assert per-epoch label "
                        "digests are bit-identical (exit 1 on divergence)")
    p.add_argument("--trace", metavar="FILE",
                   help="write the session's span trace as JSONL")
    p.add_argument("--metrics", metavar="FILE",
                   help="write gateway + dynamic metrics; .json/.jsonl "
                        "gets JSONL, anything else Prometheus text")
    p.add_argument("--doctor", action="store_true",
                   help="run the doctor over the session: gateway facts, "
                        "health rules, serving SLOs; exit 1 on crit")
    p.add_argument("--slo", metavar="FILE",
                   help="serving SLO spec JSON for --doctor (implies "
                        "--doctor)")
    p.set_defaults(func=_cmd_serve, profile=False, profile_json=None)

    p = sub.add_parser(
        "doctor",
        help="health-check a run from its artifacts (registry record, "
             "trace JSONL, metrics export, stats JSON); exit 1 on any "
             "crit finding, 2 on unreadable inputs",
    )
    p.add_argument("run_id", nargs="?",
                   help="registered run id to diagnose (needs --runs)")
    p.add_argument("--runs", metavar="RUNS_JSONL",
                   help="runs registry: the record itself plus its "
                        "same-workload history for trend rules")
    p.add_argument("--last", action="store_true",
                   help="diagnose the most recent registered run")
    p.add_argument("--trace", metavar="FILE",
                   help="trace JSONL written by cluster/update --trace")
    p.add_argument("--metrics", metavar="FILE",
                   help="metrics export (.json/.jsonl or Prometheus text)")
    p.add_argument("--stats", metavar="FILE",
                   help="stats JSON (a raw stats dict or a --profile-json "
                        "payload)")
    p.add_argument("--rules", metavar="FILE",
                   help="health rules JSON (default: the built-in "
                        "ruleset, repro.obs.health.DEFAULT_RULES_SPEC)")
    p.add_argument("--slo", metavar="FILE",
                   help="serving SLO spec JSON (forces SLO evaluation "
                        "even without serving samples)")
    p.add_argument("--iteration-cap", type=int, default=None, metavar="N",
                   help="the run's --num-iter cap, enabling "
                        "capped/stalled-level detection from stats")
    p.add_argument("--json", metavar="FILE",
                   help="write the full verdict (findings + facts) as JSON")
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser(
        "obs", help="observability: timelines and the runs registry"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "timeline",
        help="convert a trace JSONL to Chrome trace JSON (Perfetto)",
    )
    q.add_argument("trace", help="trace JSONL written by cluster --trace")
    q.add_argument("--out", metavar="FILE",
                   help="output path (default: <trace>.chrome.json)")
    q.set_defaults(func=_cmd_obs_timeline)

    q = obs_sub.add_parser(
        "validate-trace",
        help="schema-check a trace JSONL file; exit 1 when invalid",
    )
    q.add_argument("trace", help="trace JSONL file to validate")
    q.set_defaults(func=_cmd_obs_validate_trace)

    q = obs_sub.add_parser("report", help="print the registered runs")
    q.add_argument("runs", help="runs.jsonl registry file")
    q.add_argument("--last", type=_positive_int, default=None, metavar="N",
                   help="only the N most recent runs (N >= 1)")
    q.set_defaults(func=_cmd_obs_report)

    q = obs_sub.add_parser(
        "diff",
        help="compare two registered runs; non-zero exit on regression",
    )
    q.add_argument("runs", help="runs.jsonl registry file")
    q.add_argument("baseline", help="run id to compare against")
    q.add_argument("current", help="run id under test")
    q.add_argument("--wall-tolerance", type=float, default=None,
                   help="relative wall/sim worsening that fails "
                        "(default 0.10)")
    q.add_argument("--objective-tolerance", type=float, default=None,
                   help="relative objective/modularity worsening that "
                        "fails (default 0.001)")
    q.set_defaults(func=_cmd_obs_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        if args.verbose:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
