"""CLI doctor surfaces: repro doctor, cluster --doctor, update --doctor."""

import json

import pytest

from repro.cli import main

RUN = ["cluster", "--karate", "--resolution", "0.05", "--seed", "3"]


def register_run(tmp_path, run_id="base", extra=()):
    runs = tmp_path / "runs.jsonl"
    assert main(RUN + ["--register", str(runs), "--run-id", run_id]
                + list(extra)) == 0
    return runs


def inject_regression(runs, run_id="regressed", factor=0.8):
    records = [json.loads(l) for l in runs.read_text().splitlines()]
    bad = json.loads(json.dumps(records[-1]))
    bad["run_id"] = run_id
    bad["metrics"]["f_objective"] *= factor
    with open(runs, "a") as handle:
        handle.write(json.dumps(bad) + "\n")
    return run_id


class TestClusterDoctorFlag:
    def test_healthy_karate_run_is_all_ok(self, capsys):
        assert main(RUN + ["--doctor"]) == 0
        out = capsys.readouterr().out
        assert "doctor:" in out
        assert " 0 warn, 0 crit" in out
        assert "CRIT" not in out


class TestDoctorCommand:
    def test_registered_run_with_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.jsonl"
        runs = register_run(
            tmp_path, extra=["--trace", str(trace), "--metrics", str(metrics)]
        )
        capsys.readouterr()
        code = main(["doctor", "base", "--runs", str(runs),
                     "--trace", str(trace), "--metrics", str(metrics),
                     "--iteration-cap", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 crit" in out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        runs = register_run(tmp_path)
        register_run(tmp_path, run_id="second")
        bad = inject_regression(runs)
        capsys.readouterr()
        assert main(["doctor", bad, "--runs", str(runs)]) == 1
        assert "CRIT objective-regression" in capsys.readouterr().out

    def test_last_flag_picks_newest(self, tmp_path, capsys):
        runs = register_run(tmp_path)
        bad = inject_regression(runs)
        capsys.readouterr()
        assert main(["doctor", "--last", "--runs", str(runs)]) == 1

    def test_history_says_which_workload_keys_left_records_out(
        self, tmp_path, capsys
    ):
        runs = register_run(tmp_path)
        records = [json.loads(l) for l in runs.read_text().splitlines()]
        other = json.loads(json.dumps(records[-1]))
        other["run_id"] = "other"
        other["workload"]["extra_field"] = 1
        with open(runs, "a") as handle:
            handle.write(json.dumps(other) + "\n")
        capsys.readouterr()
        assert main(["doctor", "other", "--runs", str(runs)]) == 0
        out = capsys.readouterr().out
        assert (
            "history: 1 of 1 earlier records left out; their workload "
            "differs in: extra_field"
        ) in out
        assert "no comparable history" in out

    def test_json_verdict(self, tmp_path, capsys):
        runs = register_run(tmp_path)
        verdict = tmp_path / "verdict.json"
        capsys.readouterr()
        assert main(["doctor", "base", "--runs", str(runs),
                     "--json", str(verdict)]) == 0
        payload = json.loads(verdict.read_text())
        assert payload["schema"] == "repro.obs.doctor/v1"
        assert payload["worst"] in ("ok", "warn", "crit")
        assert "run.f_objective" in payload["facts"]

    def test_custom_rule_trips_on_real_run(self, tmp_path, capsys):
        runs = register_run(tmp_path)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({
            "schema": "repro.obs.health/v1",
            "rules": [{"id": "too-many-rounds", "kind": "threshold",
                       "fact": "run.rounds", "direction": "above",
                       "crit": 1, "description": "paranoid cap"}],
        }))
        capsys.readouterr()
        assert main(["doctor", "base", "--runs", str(runs),
                     "--rules", str(rules)]) == 1
        assert "CRIT too-many-rounds" in capsys.readouterr().out

    def test_bad_rules_file_is_usage_error(self, tmp_path, capsys):
        runs = register_run(tmp_path)
        rules = tmp_path / "rules.json"
        rules.write_text("{not json")
        capsys.readouterr()
        assert main(["doctor", "base", "--runs", str(runs),
                     "--rules", str(rules)]) == 2
        assert "cannot read rule set" in capsys.readouterr().err

    def test_no_inputs_is_usage_error(self, capsys):
        assert main(["doctor"]) == 2
        assert "nothing to diagnose" in capsys.readouterr().err

    def test_run_id_without_runs_is_usage_error(self, capsys):
        assert main(["doctor", "some-run"]) == 2
        assert "--runs" in capsys.readouterr().err

    def test_unknown_run_id_is_data_error(self, tmp_path, capsys):
        runs = register_run(tmp_path)
        capsys.readouterr()
        assert main(["doctor", "missing", "--runs", str(runs)]) == 2
        assert "not in registry" in capsys.readouterr().err

    def test_stats_file_from_profile_json(self, tmp_path, capsys):
        payload = tmp_path / "profile.json"
        assert main(RUN + ["--profile-json", str(payload)]) == 0
        capsys.readouterr()
        assert main(["doctor", "--stats", str(payload),
                     "--iteration-cap", "10"]) == 0
        out = capsys.readouterr().out
        assert "convergence-stall" in out


class TestUpdateDoctorFlag:
    def make_updates(self, tmp_path):
        updates = tmp_path / "updates.jsonl"
        lines = [
            {"op": "insert", "u": 0, "v": 9, "weight": 2.0},
            {"op": "delete", "u": 0, "v": 1},
            {"op": "reweight", "u": 2, "v": 3, "weight": 0.5},
        ]
        updates.write_text("".join(json.dumps(l) + "\n" for l in lines))
        return updates

    def test_doctor_with_slos_on_instrumented_session(self, tmp_path, capsys):
        updates = self.make_updates(tmp_path)
        metrics = tmp_path / "m.jsonl"
        code = main(["update", "--karate", "--seed", "3",
                     "--updates", str(updates), "--batch-size", "2",
                     "--snapshot-dir", str(tmp_path / "snaps"),
                     "--metrics", str(metrics), "--doctor"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving SLOs (p95 vs target):" in out
        assert "commit" in out and "save" in out
        # Staleness was reset by the snapshot rotation before the doctor.
        assert "updates applied since last snapshot save = 0" in out

    def test_doctor_without_instrumentation_skips_slos(self, tmp_path, capsys):
        updates = self.make_updates(tmp_path)
        code = main(["update", "--karate", "--seed", "3",
                     "--updates", str(updates), "--doctor"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving SLOs" not in out

    def test_tight_slo_spec_trips_crit(self, tmp_path, capsys):
        updates = self.make_updates(tmp_path)
        metrics = tmp_path / "m.jsonl"
        slo = tmp_path / "slo.json"
        slo.write_text(json.dumps({
            "schema": "repro.obs.slo/v1",
            # Impossibly tight: any real commit is slower than 1ns.
            "op_p95_seconds": {"commit": 1e-9},
        }))
        code = main(["update", "--karate", "--seed", "3",
                     "--updates", str(updates), "--metrics", str(metrics),
                     "--slo", str(slo)])
        out = capsys.readouterr().out
        assert code == 1
        assert "CRIT slo-commit-p95" in out
