"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Every workload runs at a tiny size with all of its checks, the command
line is exercised in both modes at full size, and each kind of check is shown to
catch a planted fault.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.atlas.population import generate_population  # noqa: E402
from repro.campaigns import StoreAggregator  # noqa: E402
from repro.campaigns.aggregate import load_epoch_page  # noqa: E402
from repro.core.study import StudyConfig, run_pilot_study  # noqa: E402
from repro.store import ResultStore  # noqa: E402

TINY = {"pilot-9800": 300, "observed-dense": 40, "campaign-live": 60}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_round_is_correct_at_tiny_size(workload, tmp_path):
    result = workloads.WORKLOADS[workload](workload, 11, TINY[workload], str(tmp_path), None)
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] > result["probes"] > 0
    assert result["measure_cpu_s"] > 0 and result["setup_s"] > 0
    assert all(value > 0 for value in result["epoch_s"])
    kinds = {kind for kind, _ms, _bytes in result["serve"]}
    assert kinds == {"trend", "epochs", "epoch", "manifest", "page"}


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False,
    )


def _metric_names(kind):
    return {m["name"] for m in run.load_benchmark()[kind]}


def test_cli_prints_end_to_end_metrics():
    # --seconds 1 runs a single full-size round.
    done = _run_cli("--workload", "campaign-live", "--seed", "4", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[-2][len("# env "):])
    assert env["seed"] == 4 and env["rounds"] == 1 and env["nproc"] >= 1
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == _metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_traced_run_reports_every_layer_and_cross_checks_events():
    # On observed-dense the traced event total must equal the metrics
    # snapshot's sim.events_dispatched, or the run is not correct.
    done = _run_cli("--workload", "observed-dense", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == _metric_names("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["sim.events"] > 0 and values["study.dedup_ratio"] == 1.0
    assert values["detector.cert_ms"] > 0 and values["detector.fingerprint_ms"] > 0
    # A ratio of CPU rates from two processes: only its presence is
    # certain, since the host's speed may change between the two rounds.
    assert math.isfinite(values["trace.overhead_x"]) and values["trace.overhead_x"] > 0


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run_cli("--workload", "pilot-9800", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- planted faults -------------------------------------------------------------


@pytest.fixture(scope="module")
def small_study(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "store")
    specs = generate_population(200, seed=3)
    study = run_pilot_study(specs, StudyConfig(workers=1, seed=3), store=ResultStore(path))
    return specs, study.records, path


def test_ground_truth_check_catches_a_flipped_verdict(small_study):
    specs, records, _path = small_study
    assert checks.check_ground_truth(specs, records) == []
    index = next(i for i, r in enumerate(records) if r.verdict == "not-intercepted")
    flipped = list(records)
    flipped[index] = dataclasses.replace(records[index], verdict="cpe")
    assert checks.check_ground_truth(specs, flipped)


def test_ground_truth_follows_the_locator_into_ipv6():
    # At seed 301 probe 11927's ISP box redirects IPv4 queries only to
    # Cloudflare, which the probe never answers for, and IPv6 queries to
    # three providers: the locator works in IPv6 and finds the box.
    spec = next(s for s in generate_population(9800, seed=301) if s.probe_id == 11927)
    assert not spec.responds_v4[0] and spec.has_ipv6
    assert checks.expected_verdict(spec) == "within-isp"
    study = run_pilot_study([spec], StudyConfig(workers=1, seed=301))
    assert checks.check_ground_truth([spec], study.records) == []


def test_journal_check_catches_a_dropped_line(small_study, tmp_path):
    _specs, records, path = small_study
    assert checks.check_journal(path, {0: records}) == []
    copy = str(tmp_path / "store")
    shutil.copytree(path, copy)
    shard = os.path.join(copy, "journal", "records-0000.jsonl")
    with open(shard, encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(shard, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:5] + lines[6:])
    assert checks.check_journal(copy, {0: records})


def test_page_check_catches_a_wrong_page(small_study):
    _specs, records, path = small_study
    page = load_epoch_page(path, 0, 40, 25)
    assert checks.check_page(page, 0, 40, 25, records) == []
    shifted = load_epoch_page(path, 0, 41, 25)
    assert checks.check_page(shifted, 0, 40, 25, records)
    tampered = json.loads(json.dumps(page))
    tampered["probes"][3]["record"]["transparency"] = "transparent"
    if tampered == page:
        tampered["probes"][3]["record"]["transparency"] = "non-transparent"
    assert checks.check_page(tampered, 0, 40, 25, records)


def test_trend_check_catches_a_miscounted_cell(small_study):
    _specs, records, path = small_study
    aggregator = StoreAggregator(path)
    aggregator.refresh()
    trend = aggregator.trend()
    assert checks.check_trend(trend, {0: records}, [len(records)]) == []
    bad = json.loads(json.dumps(trend))
    verdicts = bad["epochs"][0]["verdicts"]
    verdicts["not-intercepted"] += 1
    assert checks.check_trend(bad, {0: records}, [len(records)])


def test_pilot_anchors_hold_at_seed_2021():
    from repro.analysis import build_table4, build_table5

    specs = generate_population(9800, seed=2021)
    study = run_pilot_study(specs, StudyConfig(workers=1, seed=2021))
    table4, table5 = build_table4(study), build_table5(study)
    assert checks.check_pilot_anchors(table4, table5) == []
    assert checks.check_table4_recount(table4, study.records) == []
    assert checks.check_majority_located(study.records) == []
    assert checks.check_ground_truth(specs, study.records) == []
    # The anchor check itself rejects a Table 5 without its dnsmasq row.
    table5.counts = [(f, c) for f, c in table5.counts if f != "dnsmasq-*"]
    assert checks.check_pilot_anchors(table4, table5)


# -- tracer ----------------------------------------------------------------------


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        return sum(i * i for i in range(20000))

    traced_leaf = tracer.wrap(leaf, "leaf")

    def outer():
        sum(i * i for i in range(20000))
        traced_leaf()
        traced_leaf()
        return 3

    traced_outer = tracer.wrap(outer, "outer")
    tracer.recording = True
    assert traced_outer() == 3
    tracer.recording = False
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["leaf"]["calls"] == 2
    leaf_cpu = summary["leaf"]["cpu_s"]
    assert summary["outer"]["self_cpu_s"] == pytest.approx(summary["outer"]["cpu_s"] - leaf_cpu)
    assert summary["leaf"]["self_cpu_s"] == pytest.approx(leaf_cpu)


def test_tracer_spans_file_round_trips(tmp_path):
    tracer = tracing.Tracer()
    wrapped = tracer.wrap(lambda x: x + 1, "inc")
    tracer.recording = True
    for value in range(5):
        wrapped(value)
    tracer.recording = False
    path = str(tmp_path / "spans.bin")
    tracer.write(path)
    header, buffers = tracing.read_spans(path)
    assert header["names"] == ["inc"]
    assert list(buffers[0]["name"]) == [0] * 5
    assert list(buffers[0]["parent"]) == [-1] * 5
    assert all(e >= s for s, e in zip(buffers[0]["wall_start"], buffers[0]["wall_end"]))
