"""The frozen public surface and the single ``cluster()`` spelling.

Two gates:

* the live ``repro.api`` surface must match the committed
  ``benchmarks/api_surface.json`` snapshot (regenerate deliberately with
  ``python -m repro.api --write``);
* execution context reaches ``cluster()`` only through
  ``options=RunOptions(...)``; the old per-subsystem keywords are gone.
"""

import json
import warnings
from pathlib import Path

import pytest

import repro
import repro.api as api
from repro import (
    ClusteringConfig,
    RunOptions,
    cluster,
    karate_club_graph,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SNAPSHOT = REPO_ROOT / "benchmarks" / "api_surface.json"


class TestSurfaceSnapshot:
    def test_live_surface_matches_committed_snapshot(self):
        snapshot = json.loads(SNAPSHOT.read_text())["surface"]
        issues = api.diff_surface(snapshot)
        assert issues == [], (
            "public API drifted; if intentional run "
            "`python -m repro.api --write` and commit the diff:\n"
            + "\n".join(issues)
        )

    def test_every_facade_name_importable(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, name

    def test_top_level_all_is_sorted_and_exact(self):
        public = sorted(n for n in repro.__all__ if n != "__version__")
        assert public == sorted(set(public))
        for name in public:
            assert hasattr(repro, name), name

    def test_facade_covers_top_level(self):
        """repro.api must export at least everything repro does."""
        assert set(repro.__all__) <= set(api.__all__)

    def test_surface_entries_have_stable_signatures(self):
        # No memory addresses (default object reprs) may leak into the
        # snapshot — they would differ per process and flap CI.
        live = api.surface()
        for name, entry in live.items():
            assert " at 0x" not in entry["signature"], name


class TestDeprecatedKwargShims:
    """The per-subsystem ``cluster()`` keywords are gone: ``RunOptions``
    is the only spelling."""

    def test_legacy_keywords_rejected(self):
        graph = karate_club_graph()
        config = ClusteringConfig(resolution=0.05, seed=3)
        for name in RunOptions.__dataclass_fields__:
            with pytest.raises(TypeError):
                cluster(graph, config, **{name: None})

    def test_no_warning_on_modern_spelling(self):
        graph = karate_club_graph()
        config = ClusteringConfig(resolution=0.05, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cluster(graph, config, options=RunOptions(engine="sequential"))
