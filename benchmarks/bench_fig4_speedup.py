"""Figure 4: speedup of PAR-CC over SEQ-CC and PAR-MOD over SEQ-MOD.

Paper numbers (30 cores / 60 hyper-threads): 3.19-27.38x for PAR-CC on
the four mid-size graphs, 4.57-17.87x on twitter/friendster; 3.18-7.76x
for PAR-MOD — while keeping 0.95-1.08x of the sequential objective.
"""

from repro.bench.harness import BenchSuite, ExperimentTable
from repro.bench.studies import lookup, select, speedup_study


def speedup_suite(records) -> BenchSuite:
    """Shape the study's records into the shared bench-suite format."""
    suite = BenchSuite("fig4_speedup", meta={"figure": 4, "workers": 60})
    for kind in ("cc", "mod"):
        for par in select(records, objective_kind=kind, variant="par"):
            seq = lookup(
                records, graph=par.graph, objective_kind=kind,
                resolution=par.resolution, variant="seq",
            )
            ratio = seq.sim_time_seq / par.sim_time_par
            quality = (
                par.modularity / seq.modularity
                if kind == "mod" and abs(seq.modularity) > 1e-12
                else (
                    par.objective / seq.objective
                    if abs(seq.objective) > 1e-12
                    else 1.0
                )
            )
            suite.add_row(
                f"{par.graph}/{kind}/lambda={par.resolution}",
                metrics={"speedup": ratio, "quality": quality},
                graph=par.graph,
                objective_kind=kind,
                resolution=par.resolution,
            )
    return suite


def test_fig4_parallel_speedup(benchmark):
    records = benchmark.pedantic(speedup_study, rounds=1, iterations=1)
    suite = speedup_suite(records)

    all_speedups = {"cc": [], "mod": []}
    objective_ratios = []
    table = ExperimentTable(
        "Figure 4: speedup of PAR over SEQ (simulated, 60 workers)",
        ["graph", "objective", "resolution", "speedup", "obj PAR/SEQ"],
    )
    for row in suite.rows:
        table.add_row(
            row.info["graph"],
            row.info["objective_kind"],
            row.info["resolution"],
            row.metrics["speedup"],
            row.metrics["quality"],
        )
        all_speedups[row.info["objective_kind"]].append(row.metrics["speedup"])
        objective_ratios.append(row.metrics["quality"])
    table.emit()

    # Shape: consistent multi-x speedups in the paper's band, with
    # near-parity objectives.
    assert min(all_speedups["cc"]) > 1.5
    assert max(all_speedups["cc"]) < 60
    assert min(all_speedups["mod"]) > 1.0
    positive = [q for q in objective_ratios if q > 0]
    assert all(q > 0.7 for q in positive)
