"""CLI tests."""

import re

import pytest

from repro.cli import build_parser, main


def test_models_command(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("vgg16", "resnet101", "ugatit", "bert-base", "gpt2", "lstm"):
        assert name in out


def test_options_command(capsys):
    assert main(["options", "--mode", "uniform"]) == 0
    out = capsys.readouterr().out
    assert "|C| = 155" in out


def test_plan_command_small_job(capsys):
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--testbed", "pcie", "--machines", "2", "--gpus", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "Espresso selected compression" in out


def test_plan_stats_reports_how_algorithm2_was_solved(capsys):
    assert main([
        "plan", "--model", "vgg16", "--gc", "dgc", "--ratio", "0.01",
        "--stats",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    headers = [
        i for i, line in enumerate(lines)
        if line.split() == ["Algorithm", "2", "value"]
    ]
    assert len(headers) == 1
    rows = {}
    for line in lines[headers[0] + 2:]:
        if not line.strip():
            break
        name, value = line.rsplit(None, 1)
        rows[name.strip()] = int(value.replace(",", ""))
    assert set(rows) == {
        "passes", "by coordinate descent", "Theorem 1 combinations",
        "trials priced",
    }
    assert rows["passes"] >= 1
    assert rows["by coordinate descent"] == 0
    assert rows["trials priced"] <= rows["Theorem 1 combinations"]


def test_plan_stats_reports_cuts_inside_the_replay(capsys):
    """The batch table says where a prune came from: a sub-row counts
    the candidates the replay's critical-path bound cut part-way."""
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--stats",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(
        i for i, line in enumerate(lines)
        if line.split() == ["batch", "pricing", "value"]
    )
    rows = {}
    for line in lines[header + 2:]:
        if not line.strip():
            break
        name, value = re.split(r"\s{2,}", line.strip())[:2]
        rows[name] = int(value.split()[0].replace(",", ""))
    assert rows["cut inside the replay"] == 33
    assert rows["cut inside the replay"] <= rows["pruned by lower bound"]


def test_compare_command(capsys):
    assert main([
        "compare", "--model", "lstm", "--gc", "efsignsgd",
        "--testbed", "nvlink", "--machines", "2", "--gpus", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "FP32" in out
    assert "Espresso" in out


def test_plan_from_config_files(tmp_path, capsys):
    from repro.config import GCInfo, save_cluster, save_gc, save_model
    from repro.cluster import nvlink_100g_cluster
    from repro.models import synthetic_model
    from repro.utils.units import MB, MS

    save_model(
        synthetic_model("cfg", [(int(32 * MB / 4), 8 * MS)]),
        tmp_path / "m.json",
    )
    save_gc(GCInfo("efsignsgd"), tmp_path / "g.json")
    save_cluster(nvlink_100g_cluster(num_machines=2, gpus_per_machine=2),
                 tmp_path / "s.json")
    assert main([
        "plan",
        "--model-config", str(tmp_path / "m.json"),
        "--gc-config", str(tmp_path / "g.json"),
        "--system-config", str(tmp_path / "s.json"),
    ]) == 0
    assert "Espresso selected" in capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_validate_command(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    assert main([
        "validate", "--model", "lstm", "--testbed", "nvlink",
        "--machines", "2", "--gpus", "4", "--trace", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "All 8 strategies conformant" in out
    assert "0 violations" not in out  # table shows "ok", not counts
    for name in ("baseline", "allgather-gpu", "alltoall-cpu", "double-gpu"):
        assert name in out
    import json

    payload = json.loads(trace.read_text(encoding="utf-8"))
    assert payload["traceEvents"]
    assert payload["otherData"]["stages"] > 0


def test_validate_single_strategy_skip_oracle(capsys):
    assert main([
        "validate", "--model", "lstm", "--machines", "2", "--gpus", "4",
        "--strategy", "baseline", "--skip-oracle",
    ]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out
    assert "All 1 strategies conformant" in out


def test_plan_check_flag(capsys):
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--testbed", "pcie", "--machines", "2", "--gpus", "4", "--check",
    ]) == 0
    out = capsys.readouterr().out
    assert "conformance:" in out
    assert "0 violations" in out


def test_compare_check_flag(capsys):
    assert main([
        "compare", "--model", "lstm", "--gc", "efsignsgd",
        "--machines", "2", "--gpus", "4", "--check",
    ]) == 0
    out = capsys.readouterr().out
    assert "conformance: 5 system timelines checked, 0 violations" in out


def test_faults_command(capsys):
    assert main([
        "faults", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--testbed", "pcie", "--machines", "2", "--gpus", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "Fault sensitivity" in out
    # The sensitivity table covers the selected strategy, FP32, and a
    # baseline, with per-fault-class overhead deltas.
    for column in ("espresso", "fp32", "hipress"):
        assert column in out
    for fault in ("nominal", "straggler-1.5x", "slow-inter-50",
                  "cpu-contention", "lossy-inter-1pct", "degraded-mix"):
        assert fault in out
    assert "worst case" in out
    assert "%" in out


def test_faults_check_flag(capsys):
    assert main([
        "faults", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--testbed", "pcie", "--machines", "2", "--gpus", "4", "--check",
    ]) == 0
    out = capsys.readouterr().out
    assert "faulted timelines checked, 0 violations" in out


def test_plan_robust_flag(capsys):
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--testbed", "pcie", "--machines", "2", "--gpus", "4", "--robust",
    ]) == 0
    out = capsys.readouterr().out
    assert "Robust selection" in out
    assert "nominal plan" in out  # "replaces" or "confirms" verdict


def test_plan_robust_cvar_objective(capsys):
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--testbed", "pcie", "--machines", "2", "--gpus", "4",
        "--robust", "--objective", "cvar", "--cvar-alpha", "0.5",
    ]) == 0
    out = capsys.readouterr().out
    assert "Robust selection (cvar)" in out


# -- failure paths: bad config files exit 2 with a one-line message --------


@pytest.mark.parametrize("flag", ["--model-config", "--gc-config",
                                  "--system-config"])
def test_missing_config_file_exits_2(flag, tmp_path, capsys):
    assert main(["plan", flag, str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "not found" in err
    assert err.count("\n") == 1  # one-line diagnostic, no traceback


@pytest.mark.parametrize("flag", ["--model-config", "--gc-config",
                                  "--system-config"])
def test_malformed_config_file_exits_2(flag, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["plan", flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err
    assert err.count("\n") == 1


def test_config_directory_exits_2(tmp_path, capsys):
    assert main(["plan", "--model-config", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err


def test_wrong_schema_config_exits_2(tmp_path, capsys):
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"unexpected": 1}', encoding="utf-8")
    assert main(["plan", "--model-config", str(wrong)]) == 2
    err = capsys.readouterr().err
    assert "model config" in err
    assert err.count("\n") == 1


def test_typod_optional_key_exits_2_not_silently_defaulted(tmp_path, capsys):
    """Satellite regression: a misspelled *optional* cluster key used to
    be dropped on the floor and the default priced instead — the plan
    looked plausible but described the wrong cluster.  Now it's a
    loud exit-2 that names both the typo and the accepted spelling."""
    import json as json_module

    from repro.cluster import nvlink_100g_cluster
    from repro.config import cluster_to_dict

    data = cluster_to_dict(nvlink_100g_cluster())
    data["inter_latencey"] = data.pop("inter_latency")
    bad = tmp_path / "cluster.json"
    bad.write_text(json_module.dumps(data), encoding="utf-8")
    assert main(["plan", "--system-config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "'inter_latencey'" in err
    assert "inter_latency" in err  # the fix is in the message
    assert err.count("\n") == 1


def test_bad_compressor_param_exits_2_before_planning(capsys):
    """Compressor kwargs are validated eagerly: a bad ratio surfaces as a
    one-line exit-2 diagnostic instead of a traceback mid-plan."""
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0",
        "--machines", "2", "--gpus", "4",
    ]) == 2
    err = capsys.readouterr().err
    assert "ratio" in err
    assert err.count("\n") == 1  # one-line diagnostic, no traceback


@pytest.mark.parametrize("argv", [
    ["plan", "--model", "lstm", "--machines", "0"],
    ["fleet", "--tenant", "a:lstm:dgc", "--gpus", "0"],
])
def test_non_positive_cluster_dimensions_exit_2(argv, capsys):
    """Preset clusters come from the service's shared builder, so a zero
    dimension is the same one-line diagnostic in every command."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "machines/gpus" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["plan", "--model", "lstm", "--machines", "2", "--gpus", "4",
     "--robust", "--objective", "cvar", "--cvar-alpha", "2"],
    ["plan", "--model", "lstm", "--machines", "2", "--gpus", "4",
     "--robust", "--objective", "cvar", "--cvar-alpha", "0"],
    ["fleet", "--mix", "pcie-trio", "--cvar-alpha", "5"],
])
def test_bad_cvar_alpha_exits_2_before_planning(argv, capsys):
    """An out-of-range tail fraction is refused up front, not with a
    traceback once the planners have run."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--cvar-alpha must be in (0, 1]" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_validate_unwritable_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "missing" / "trace.json"
    assert main([
        "validate", "--model", "lstm", "--machines", "2", "--gpus", "4",
        "--strategy", "baseline", "--skip-oracle", "--trace", str(trace),
    ]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {trace}" in err
    assert err.count("\n") == 1


def test_plan_fusion_unwritable_save_exits_2(tmp_path, capsys):
    plan = tmp_path / "missing" / "plan.json"
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--machines", "2", "--gpus", "4", "--fusion", "--save", str(plan),
    ]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {plan}" in err
    assert err.count("\n") == 1


# -- ratio ladder / error budget flags -------------------------------------


def test_plan_ratios_flag_prints_ladder_line(capsys):
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--testbed", "pcie", "--machines", "2", "--gpus", "4",
        "--ratios",
    ]) == 0
    out = capsys.readouterr().out
    assert "Espresso selected compression" in out
    assert "ratio ladder:" in out
    assert "fixed-ratio baseline" in out


def test_plan_explicit_ratio_list_and_budget(capsys):
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
        "--testbed", "pcie", "--machines", "2", "--gpus", "4",
        "--ratios", "0.001,0.01,0.1", "--error-budget", "0.9",
    ]) == 0
    out = capsys.readouterr().out
    assert "error budget:" in out
    assert "utilization" in out


def test_plan_bad_ratios_exit_2(capsys):
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc",
        "--machines", "2", "--gpus", "4", "--ratios", "0.1,2.0",
    ]) == 2
    err = capsys.readouterr().err
    assert "--ratios" in err
    assert err.count("\n") == 1


def test_plan_bad_error_budget_exits_2(capsys):
    assert main([
        "plan", "--model", "lstm", "--gc", "dgc",
        "--machines", "2", "--gpus", "4", "--error-budget", "1.5",
    ]) == 2
    err = capsys.readouterr().err
    assert "--error-budget" in err
    assert err.count("\n") == 1


# -- training engine subcommands ------------------------------------------


def test_train_command_with_checkpoints(tmp_path, capsys):
    ck = tmp_path / "ck"
    assert main([
        "train", "--gc", "topk", "--ratio", "0.1", "--workers", "2",
        "--steps", "8", "--eval-every", "4", "--checkpoint-every", "4",
        "--checkpoint-dir", str(ck),
    ]) == 0
    out = capsys.readouterr().out
    assert "trained to step 8" in out
    assert "checkpoints in" in out
    # A checkpoint landed on the target step: resuming is a clean no-op.
    assert main([
        "train", "--gc", "topk", "--ratio", "0.1", "--workers", "2",
        "--steps", "8", "--eval-every", "4", "--checkpoint-every", "4",
        "--checkpoint-dir", str(ck), "--resume",
    ]) == 0
    out = capsys.readouterr().out
    assert "resumed at step 8" in out
    assert "nothing to do" in out


def test_train_resume_with_resize(tmp_path, capsys):
    ck = tmp_path / "ck"
    assert main([
        "train", "--gc", "dgc", "--workers", "2", "--steps", "6",
        "--eval-every", "3", "--checkpoint-every", "2",
        "--checkpoint-dir", str(ck), "--resize", "4:3",
    ]) == 0
    out = capsys.readouterr().out
    assert "membership changes:" in out
    assert "2 -> 3 workers" in out


def test_train_resume_requires_checkpoint_dir(capsys):
    assert main(["train", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "--resume requires --checkpoint-dir" in err
    assert err.count("\n") == 1


def test_train_bad_resize_exits_2(capsys):
    assert main(["train", "--resize", "banana"]) == 2
    assert "--resize wants STEP:WORKERS" in capsys.readouterr().err


def test_train_unknown_compressor_exits_2(capsys):
    assert main(["train", "--gc", "nope"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert err.count("\n") == 1


def test_train_all_corrupt_checkpoints_exit_2(tmp_path, capsys):
    from repro.training.chaos import corrupt_file
    from repro.training.checkpoint import list_checkpoints

    ck = tmp_path / "ck"
    args = [
        "train", "--gc", "dgc", "--workers", "2", "--steps", "6",
        "--eval-every", "3", "--checkpoint-every", "2",
        "--checkpoint-dir", str(ck),
    ]
    assert main(args) == 0
    capsys.readouterr()
    for path in list_checkpoints(ck):
        corrupt_file(path)
    assert main(args + ["--resume"]) == 2
    err = capsys.readouterr().err
    assert "candidates corrupt" in err
    assert err.count("\n") == 1  # one-line diagnostic, no traceback


def test_chaos_command_inprocess(tmp_path, capsys):
    assert main([
        "chaos", "--gc", "dgc", "--workers", "2", "--steps", "10",
        "--eval-every", "5", "--checkpoint-every", "3", "--kills", "2",
        "--mode", "inprocess", "--corrupt-newest", "--dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "[inprocess]" in out
    assert "[corruption]" in out
    assert "EQUIVALENT" in out
    assert "bit-identical" in out
    import json

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["equivalent"] is True
    assert {r["mode"] for r in report["results"]} == {
        "inprocess", "corruption",
    }
    for result in report["results"]:
        for recovery in result["recoveries"]:
            assert recovery["restored_step"] <= recovery["crash_step"]


def test_chaos_command_sigkill_mode(tmp_path, capsys):
    assert main([
        "chaos", "--gc", "none", "--workers", "2", "--steps", "8",
        "--eval-every", "4", "--checkpoint-every", "2", "--kills", "1",
        "--mode", "sigkill", "--dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "[sigkill]" in out
    assert "EQUIVALENT" in out
    assert (tmp_path / "report.json").exists()


def test_fleet_command_with_mix(capsys):
    assert main(["fleet", "--mix", "lstm-pair", "--check"]) == 0
    out = capsys.readouterr().out
    assert "Fleet plan: 2 tenants" in out
    assert "aggregate throughput:" in out
    assert "worst tenant slowdown" in out
    assert "contended timelines checked, 0 violations" in out


def test_fleet_command_inline_tenants(capsys):
    assert main([
        "fleet", "--tenant", "a:lstm:dgc:0.01", "--tenant", "b:lstm:fp16",
        "--testbed", "nvlink", "--machines", "2", "--gpus", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "Fleet plan: 2 tenants" in out
    assert "a:" in out and "b:" in out


def test_fleet_command_from_config(tmp_path, capsys):
    from repro.cluster import nvlink_100g_cluster
    from repro.cluster.tenancy import FleetSpec, TenantSpec, save_fleet

    fleet = FleetSpec(
        cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=2),
        tenants=(
            TenantSpec(name="a", model="lstm", gc="dgc", ratio=0.01),
            TenantSpec(name="b", model="lstm", gc="efsignsgd"),
        ),
    )
    save_fleet(fleet, tmp_path / "fleet.json")
    assert main(["fleet", "--config", str(tmp_path / "fleet.json")]) == 0
    assert "Fleet plan: 2 tenants" in capsys.readouterr().out


def test_jobs_flag_prints_note_and_plans_like_one_job(capsys):
    """--jobs N is accepted, says it plans in one process, and changes
    nothing else: the same plan (selection wall-clock aside) as N = 1."""
    import re

    def without_timings(out):
        return re.sub(r"in [0-9.,]+ ms", "in <t> ms", out).splitlines()

    note = ("note: --jobs 4 is accepted for compatibility; "
            "planning runs in one process")
    for argv in (
        ["plan", "--model", "lstm", "--gc", "dgc", "--ratio", "0.01",
         "--machines", "2", "--gpus", "4"],
        ["fleet", "--mix", "lstm-pair"],
    ):
        assert main(argv + ["--jobs", "1"]) == 0
        one = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        four = capsys.readouterr().out
        assert "note:" not in one
        assert four.splitlines()[0] == note
        assert without_timings(four)[1:] == without_timings(one)


def test_fleet_malformed_configs_exit_2(tmp_path, capsys):
    # Missing file.
    assert main(["fleet", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err
    # Unknown key in the fleet config.
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"testbed": "nvlink", "tenants": '
        '[{"name": "a", "model": "lstm"}], "surprise": 1}'
    )
    assert main(["fleet", "--config", str(bad)]) == 2
    assert "surprise" in capsys.readouterr().err
    # Malformed inline tenant spec.
    assert main(["fleet", "--tenant", "bad"]) == 2
    assert "NAME:MODEL:GC" in capsys.readouterr().err
    # Bad compressor ratio surfaces before planning.
    assert main(["fleet", "--tenant", "a:lstm:dgc:7.0",
                 "--tenant", "b:lstm:fp16"]) == 2
    assert "ratio" in capsys.readouterr().err
    # Exactly one source of tenants.
    assert main(["fleet"]) == 2
    assert main(["fleet", "--mix", "lstm-pair",
                 "--tenant", "a:lstm:fp16"]) == 2
    # Bad round cap.
    assert main(["fleet", "--mix", "lstm-pair", "--max-rounds", "0"]) == 2
    assert "--max-rounds" in capsys.readouterr().err
