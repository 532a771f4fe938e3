"""Clustering configuration: objective parameters and optimization toggles.

The three optimization axes of Section 3.2 map to three enum/boolean
fields; Section 4.1 establishes the best trade-off to be asynchronous
moves, the vertex-neighbor frontier, and multi-level refinement — which
are therefore the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from repro.errors import ConfigError
from repro.kernels import native
from repro.parallel.scheduler import Machine


class Objective(Enum):
    """Which instantiation of the LambdaCC objective to optimize."""

    #: Correlation clustering: unit vertex weights, resolution = lambda.
    CORRELATION = "correlation"
    #: Modularity: k_v = weighted degree, lambda = gamma / (2 m_w).
    MODULARITY = "modularity"


class Mode(Enum):
    """Vertex-move scheduling within BEST-MOVES (Section 3.2.1)."""

    #: All of V' computes against one snapshot, then moves in lockstep.
    SYNC = "sync"
    #: Moves apply per concurrency window; later windows see earlier moves.
    ASYNC = "async"


class Frontier(Enum):
    """Which vertices to (re)consider each iteration (Section 3.2.2)."""

    ALL = "all"
    #: Neighbors of clusters affected by the previous iteration's moves.
    CLUSTER_NEIGHBORS = "cluster-neighbors"
    #: Neighbors of vertices moved in the previous iteration (the default).
    VERTEX_NEIGHBORS = "vertex-neighbors"


def resolve_workers(requested: Optional[int], machine=None) -> int:
    """Resolve a simulated worker count request to a concrete P.

    ``requested`` of ``None`` or ``0`` means *auto*: the cores this
    process may run on (:func:`~repro.kernels.native.usable_cores`, the
    count the kernel's thread pool uses) capped by the machine profile's
    ``max_workers``.  Explicit positive requests are honoured as-is.
    """
    if requested is not None and requested > 0:
        return int(requested)
    auto = native.usable_cores()
    if machine is not None:
        auto = min(auto, machine.max_workers)
    return max(1, int(auto))


@dataclass(frozen=True)
class ClusteringConfig:
    """Full configuration for a clustering run.

    Attributes
    ----------
    objective:
        :class:`Objective` choice.
    resolution:
        ``lambda`` for correlation clustering (must lie in (0, 1), or 0 for
        degenerate test cases), ``gamma`` for modularity (positive).
    parallel:
        Run PARALLEL-CC (True) or SEQUENTIAL-CC (False).
    mode, frontier, refine:
        The Section 3.2 optimization axes (parallel runs only; the
        sequential baseline honours ``frontier`` and ``refine`` as in
        Section 4.2 but is inherently asynchronous/ordered).
    num_iter:
        Bound on best-move iterations per level (paper default 10).
        ``None`` means run to convergence (the ^CON superscript variants).
    num_workers, machine:
        Simulated-parallelism parameters (see DESIGN.md).  ``num_workers=0``
        means *auto*: resolve via the usable core count capped by the machine
        profile's ``max_workers`` (see :func:`resolve_workers`).
    async_windows:
        Number of concurrency windows an asynchronous iteration is split
        into; the window size is ``max(num_workers, ceil(|V'| / async_windows))``.
        Models the staleness horizon of true asynchrony (DESIGN.md §2);
        varied by the batch-size ablation bench.
    kernel_threshold:
        Degree above which the parallel hash-table best-move kernel is
        charged instead of the sequential one (Appendix B).
    escape_moves:
        Allow a vertex whose every option has negative gain to escape to
        its (empty) home cluster slot.  Needed for correctness under
        negative rescaled weights; disabled only by the singleton-escape
        ablation bench.
    seed:
        RNG seed for permutations and window formation.  ``None`` makes
        :func:`~repro.core.api.cluster` draw a fresh one per call and
        record it as ``ClusterResult.seed``, so the run can be replayed.
    max_levels:
        Safety bound on coarsening recursion depth.
    """

    objective: Objective = Objective.CORRELATION
    resolution: float = 0.01
    parallel: bool = True
    mode: Mode = Mode.ASYNC
    frontier: Frontier = Frontier.VERTEX_NEIGHBORS
    refine: bool = True
    num_iter: Optional[int] = 10
    num_workers: int = 60
    machine: Machine = field(default_factory=Machine.c2_standard_60)
    async_windows: int = 32
    kernel_threshold: int = 512
    escape_moves: bool = True
    seed: Optional[int] = None
    max_levels: int = 50

    def __post_init__(self) -> None:
        if self.objective is Objective.CORRELATION:
            if not 0.0 <= self.resolution < 1.0:
                raise ConfigError(
                    f"correlation resolution (lambda) must be in [0, 1), got {self.resolution}"
                )
        else:
            if not self.resolution > 0:
                raise ConfigError(
                    f"modularity resolution (gamma) must be positive, got {self.resolution}"
                )
        if self.num_iter is not None and self.num_iter < 1:
            raise ConfigError(f"num_iter must be >= 1 or None, got {self.num_iter}")
        if self.num_workers < 0:
            raise ConfigError(
                f"num_workers must be >= 1, or 0 for auto, got {self.num_workers}"
            )
        if self.async_windows < 1:
            raise ConfigError(f"async_windows must be >= 1, got {self.async_windows}")
        if self.max_levels < 1:
            raise ConfigError(f"max_levels must be >= 1, got {self.max_levels}")
        if self.kernel_threshold < 1:
            raise ConfigError(
                f"kernel_threshold must be >= 1, got {self.kernel_threshold}"
            )

    @property
    def resolved_workers(self) -> int:
        """``num_workers`` with 0 resolved to the host's usable core count."""
        return resolve_workers(self.num_workers, self.machine)

    @property
    def iteration_bound(self) -> int:
        """``num_iter``, with convergence runs bounded only by a large cap."""
        return self.num_iter if self.num_iter is not None else 10_000

    @property
    def run_to_convergence(self) -> bool:
        return self.num_iter is None

    def with_options(self, **changes) -> "ClusteringConfig":
        """A modified copy (thin wrapper over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # argparse round-trip
    # ------------------------------------------------------------------ #

    @classmethod
    def add_args(cls, parser, *, include_objective: bool = True) -> None:
        """Register the standard config flags on ``parser``.

        One canonical flag block shared by every CLI subcommand that
        builds a :class:`ClusteringConfig` (``cluster`` / ``update`` /
        ``serve``), paired with :meth:`from_args` for the
        reverse direction.  ``include_objective=False`` omits the
        ``--objective`` flag for correlation-only subcommands (the
        dynamic subsystem).
        """
        if include_objective:
            parser.add_argument(
                "--objective",
                choices=[o.value for o in Objective],
                default="correlation",
            )
        parser.add_argument(
            "--resolution", type=float, default=0.01,
            help="lambda (correlation) or gamma (modularity)",
        )
        parser.add_argument(
            "--sequential", action="store_true",
            help="run SEQ instead of PAR",
        )
        parser.add_argument(
            "--mode", choices=[m.value for m in Mode], default="async"
        )
        parser.add_argument(
            "--frontier",
            choices=[f.value for f in Frontier],
            default="vertex-neighbors",
        )
        parser.add_argument("--no-refine", action="store_true")
        parser.add_argument("--num-iter", type=int, default=10)
        parser.add_argument(
            "--converge", action="store_true",
            help="run to convergence (the ^CON variants)",
        )
        parser.add_argument(
            "--workers", type=int, default=60,
            help="simulated worker lanes (0 = auto: one per core this "
                 "process may run on, capped by the machine model)",
        )
        parser.add_argument("--seed", type=int, default=None)

    @classmethod
    def from_args(
        cls, args, *, objective: Optional["Objective"] = None
    ) -> "ClusteringConfig":
        """Build a config from an :meth:`add_args` namespace.

        ``objective`` pins the objective for correlation-only
        subcommands whose parser omitted ``--objective``.
        """
        if objective is None:
            objective = Objective(getattr(args, "objective", "correlation"))
        return cls(
            objective=objective,
            resolution=args.resolution,
            parallel=not args.sequential,
            mode=Mode(args.mode),
            frontier=Frontier(args.frontier),
            refine=not args.no_refine,
            num_iter=None if args.converge else args.num_iter,
            num_workers=args.workers,
            seed=args.seed,
        )

    def describe(self) -> str:
        """Short human-readable tag, e.g. ``PAR-CC[async,vertex-nbrs,refine]``."""
        base = "PAR" if self.parallel else "SEQ"
        obj = "CC" if self.objective is Objective.CORRELATION else "MOD"
        opts = [self.mode.value, self.frontier.value, "refine" if self.refine else "no-refine"]
        con = "^CON" if self.run_to_convergence else ""
        return f"{base}-{obj}{con}[{','.join(opts)}]"

    def config_tag(self, effective_lambda: float) -> str:
        """Checkpoint compatibility tag for this config at a resolution.

        Deliberately built from :meth:`describe` — which excludes the
        engine — so a checkpoint written on one fallback rung (e.g. the
        relaxed engine) can be resumed on another (the sequential
        engine): the multilevel hierarchy and objective are what must
        match, not the executor.
        """
        return f"{self.describe()}|lambda={effective_lambda:.12g}"
