"""The benchmark's workloads, one measured round each.

A round runs in a fresh interpreter (see ``round.py``). It makes its
inputs from the seed, drives the program through the public calls that
``repro study --store``, ``repro campaign run`` and ``repro serve``
make, times the work in CPU seconds of this process, sends a fixed mix
of HTTP requests to the store it wrote, and checks every output (see
``checks.py``). It returns one JSON-ready dict.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from typing import Optional

import checks
import tracing
from repro.analysis import (
    build_agreement_table,
    build_evasion_table,
    build_figure3,
    build_figure4_countries,
    build_figure4_organizations,
    build_table4,
    build_table5,
    save_study,
)
from repro.analysis.fingerprint_study import build_fingerprint_confusion
from repro.atlas.population import PopulationConfig, generate_population
from repro.campaigns import LongitudinalCampaign, StoreAggregator
from repro.campaigns.catalog import bundle_from_dict
from repro.core.study import (
    StudyConfig,
    classification_to_record,
    measure_probe,
    run_pilot_study,
)
from repro.resolvers.directory import build_default_directory
from repro.serve import StoreServer
from repro.store import ResultStore, load_stored_study

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CAMPAIGN_BUNDLE = os.path.join(BENCH_DIR, "campaign-live.json")

#: Full sizes: probes in the fleet (pilot, dense) or base fleet
#: (campaign). Self-tests pass smaller ones.
SIZES = {"pilot-9800": 9800, "observed-dense": 400, "campaign-live": 600}

#: Interceptor design counts (at the generator's 9,800-probe reference
#: size) for the dense fleet, as in scenarios/ci-smoke.json.
DENSE_KNOBS = {"cpe_true_count": 1500, "isp_all_four": 1200, "ext_all_four": 500}

#: Serve mix per batch: each table endpoint ``TABLE_REPS`` times, then
#: ``PAGES`` drill-down pages of ``PAGE_LIMIT`` records at seeded offsets.
TABLE_REPS = {"pilot-9800": 75, "observed-dense": 75, "campaign-live": 20}
PAGES = {"pilot-9800": 6, "observed-dense": 6, "campaign-live": 5}
PAGE_LIMIT = 100

#: Probes re-measured on the reference engine per round.
REFERENCE_SAMPLE = 8


# -- serving -----------------------------------------------------------------


class ServeProcess:
    """``repro serve`` in its own process, on an ephemeral port."""

    def __init__(self, store: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", store, "--port", "0"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )
        line = self.proc.stderr.readline()
        match = re.search(r"at http://([\d.]+):(\d+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


class InProcessServer:
    """The same server in a thread of this process, so the tracer sees
    its calls."""

    def __init__(self, store: str) -> None:
        self.server = StoreServer(store).start()
        self.host, self.port = self.server.address

    def close(self) -> None:
        self.server.close()


class ServeClient:
    """One client, one request at a time, one connection per request
    (the server speaks HTTP/1.0). Latency is client wall time."""

    def __init__(self, server, tracer: Optional[tracing.Tracer]) -> None:
        self.server = server
        self.tracer = tracer
        self.samples: list[tuple[str, float, int]] = []
        self.attempted = 0
        self.failed = 0

    def _fetch(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.server.host, self.server.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get(self, kind: str, path: str) -> Optional[bytes]:
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            saved = (tracer.ctx_kind, tracer.ctx)
            tracer.ctx_kind, tracer.ctx = tracing.CTX_REQUEST, self.attempted
        start = time.perf_counter()
        try:
            if tracer is not None:
                status, body = tracer.span(f"serve.{kind}", self._fetch, path)
            else:
                status, body = self._fetch(path)
        except OSError:
            status, body = 0, b""
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if tracer is not None:
            tracer.ctx_kind, tracer.ctx = saved
        if status != 200:
            self.failed += 1
            return None
        self.samples.append((kind, elapsed_ms, len(body)))
        return body


def serve_batch(client: ServeClient, workload: str, epoch: int, total: int, rng: random.Random) -> dict:
    """The fixed request mix against one store; returns the parsed
    responses the checks need (first of each table endpoint, every page)."""
    seen: dict = {"epoch": epoch, "tables": {}, "pages": [], "repeats_differ": []}
    paths = {
        "trend": "/trend",
        "epochs": "/epochs",
        "epoch": f"/epochs/{epoch}",
        "manifest": "/manifest",
    }
    first: dict[str, bytes] = {}
    for _rep in range(TABLE_REPS[workload]):
        for kind, path in paths.items():
            body = client.get(kind, path)
            if body is None:
                continue
            if kind not in first:
                first[kind] = body
                seen["tables"][kind] = json.loads(body)
            elif body != first[kind]:
                seen["repeats_differ"].append(path)
    for _page in range(PAGES[workload]):
        offset = rng.randrange(max(1, total))
        path = f"/probes?epoch={epoch}&offset={offset}&limit={PAGE_LIMIT}"
        body = client.get("page", path)
        if body is not None:
            seen["pages"].append((offset, json.loads(body)))
    return seen


def check_batch(seen: dict, epochs: dict, sizes: list, manifest: Optional[dict]) -> list[str]:
    """A batch's responses against the records the run returned."""
    problems = [f"{path}: repeated request answered differently" for path in seen["repeats_differ"]]
    tables = seen["tables"]
    epoch = seen["epoch"]
    if "trend" in tables:
        problems += checks.check_trend(tables["trend"], epochs, sizes)
    if "epochs" in tables:
        problems += checks.check_epochs_index(tables["epochs"], epochs, sizes)
    if "epoch" in tables:
        problems += checks.check_epoch_table(tables["epoch"], epoch, epochs.get(epoch, ()), sizes[epoch])
    if "manifest" in tables and manifest is not None and tables["manifest"] != manifest:
        problems.append("/manifest differs from the store's manifest.json")
    for offset, page in seen["pages"]:
        problems += checks.check_page(page, epoch, offset, PAGE_LIMIT, epochs.get(epoch, ()))
    return problems


def read_manifest(store: str) -> dict:
    with open(os.path.join(store, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- shared pieces -------------------------------------------------------------


def reference_records(specs, config: StudyConfig, picks) -> list:
    """Re-measure ``picks`` (fleet indices) on the reference engine:
    fresh scenario builds, no caches, no dedup."""
    directory = build_default_directory()
    out = []
    for index in picks:
        spec = specs[index]
        classification = measure_probe(
            spec,
            run_transparency=config.run_transparency,
            directory=directory,
            engine="reference",
            transport=config.transport,
            evasion=config.evasion,
            detector=config.detector,
            fingerprint=config.fingerprint,
        )
        out.append(classification_to_record(spec, classification, detector=config.detector))
    return out


def sample_indices(specs, records, rng: random.Random) -> list[int]:
    """Half intercepted probes, half any probe."""
    intercepted = [i for i, r in enumerate(records) if r.is_intercepted]
    half = REFERENCE_SAMPLE // 2
    picks = rng.sample(intercepted, min(half, len(intercepted)))
    rest = [i for i in range(len(specs)) if i not in set(picks)]
    picks += rng.sample(rest, min(REFERENCE_SAMPLE - len(picks), len(rest)))
    return sorted(picks)


def journal_bytes(store: str) -> int:
    journal = os.path.join(store, "journal")
    return sum(os.path.getsize(os.path.join(journal, name)) for name in os.listdir(journal))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def start_server(store: str, tracer):
    return InProcessServer(store) if tracer is not None else ServeProcess(store)


# -- study workloads: pilot-9800, observed-dense ------------------------------


def study_round(workload: str, seed: int, size: int, workdir: str, tracer) -> dict:
    """One ``repro study --store`` run, its report and export, then the
    serve mix against the finished one-epoch archive."""
    dense = workload == "observed-dense"
    if dense:
        specs = generate_population(config=PopulationConfig(size=size, seed=seed, **DENSE_KNOBS))
        config = StudyConfig(
            workers=1, seed=seed, metrics=True, detector="both",
            fingerprint=True, transport="doh", evasion=True,
        )
    else:
        specs = generate_population(size=size, seed=seed)
        config = StudyConfig(workers=1, seed=seed)
    store_path = os.path.join(workdir, "store")
    store = ResultStore(store_path)
    setup_s = c0 = time.process_time()

    study = run_pilot_study(specs, config, store=store)
    c1 = time.process_time()
    table4 = build_table4(study)
    table5 = build_table5(study)
    report = [
        table4.render(),
        table5.render(),
        build_figure3(study).render(),
        build_figure4_countries(study).render(),
        build_figure4_organizations(study).render(),
    ]
    agreement = None
    if dense:
        agreement = build_agreement_table(study).to_dict()
        report += [
            build_evasion_table(study).render(),
            build_fingerprint_confusion(study).render(),
            json.dumps(agreement),
        ]
    save_study(study, os.path.join(workdir, "study.json"))
    c2 = time.process_time()
    rss = peak_rss_mb()

    server = start_server(store_path, tracer)
    client = ServeClient(server, tracer)
    try:
        seen = serve_batch(client, workload, 0, len(specs), random.Random(seed * 31 + 7))
        manifest = read_manifest(store_path)
    finally:
        server.close()
    layers = finish_trace(tracer, workdir, len(specs), store_path, client)

    rng = random.Random(seed * 7919 + 1)
    epochs = {0: study.records}
    picks = sample_indices(specs, study.records, rng)
    problems = checks.flatten([
        checks.check_ground_truth(specs, study.records),
        checks.check_same_records(
            "reference engine",
            reference_records(specs, config, picks),
            [study.records[i] for i in picks],
        ),
        checks.check_same_records("store read-back", load_stored_study(store_path).records, study.records),
        checks.check_journal(store_path, epochs),
        check_batch(seen, epochs, [len(specs)], manifest),
        checks.check_table4_recount(table4, study.records),
        checks.check_majority_located(study.records) if not dense else None,
        checks.check_pilot_anchors(table4, table5) if (seed, size) == (2021, 9800) else None,
        checks.check_dense(specs, study.records, study.metrics, agreement) if dense else None,
    ])
    if tracer is not None and dense:
        events = study.metrics.counters.get("sim.events_dispatched")
        if layers["sim.events"] != events:
            problems.append(
                f"traced Network.run returned {layers['sim.events']} events, "
                f"metrics counted {events}"
            )
    return {
        "setup_s": setup_s,
        "measure_cpu_s": c1 - c0,
        "probes": len(specs),
        "epoch_s": [c2 - c0],
        "peak_rss_mb": rss,
        "serve": client.samples,
        "attempted": len(specs) + client.attempted,
        "failed": (len(specs) - len(study.records)) + client.failed,
        "problems": problems,
        "layers": layers,
    }


# -- campaign-live -------------------------------------------------------------


def campaign_bundle(seed: int, size: int):
    with open(CAMPAIGN_BUNDLE, encoding="utf-8") as handle:
        data = json.load(handle)
    data["population"] = dict(data["population"], seed=seed, size=size)
    return bundle_from_dict(data, where=CAMPAIGN_BUNDLE)


def campaign_round(workload: str, seed: int, size: int, workdir: str, tracer) -> dict:
    """One ``repro campaign run``: every epoch journaled and folded, and
    after each epoch a serve batch against the live store."""
    bundle = campaign_bundle(seed, size)
    campaign = LongitudinalCampaign(bundle)
    store_path = os.path.join(workdir, "store")
    store = ResultStore(store_path)
    aggregator = StoreAggregator(store_path, persist=True)
    setup_s = time.process_time()

    state = {"mark": 0.0, "serve_cpu": 0.0, "server": None, "client": None}
    epoch_cpu: list[float] = []
    batches: list[tuple[dict, dict]] = []
    rng = random.Random(seed * 31 + 7)

    def epoch_done(epoch: int) -> None:
        aggregator.refresh()
        now = time.process_time()
        epoch_cpu.append(now - state["mark"])
        if tracer is not None:
            tracer.ctx_kind, tracer.ctx = tracing.CTX_NONE, -1
        if state["server"] is None:
            state["server"] = start_server(store_path, tracer)
            state["client"] = ServeClient(state["server"], tracer)
        seen = serve_batch(state["client"], workload, epoch, len(campaign.epoch_fleet(epoch)), rng)
        batches.append((seen, read_manifest(store_path)))
        after = time.process_time()
        state["serve_cpu"] += after - now
        state["mark"] = after
        if tracer is not None:
            tracer.ctx_kind, tracer.ctx = tracing.CTX_EPOCH, epoch + 1

    if tracer is not None:
        tracer.ctx_kind, tracer.ctx = tracing.CTX_EPOCH, 0
    c0 = state["mark"] = time.process_time()
    try:
        epochs = campaign.run(store=store, workers=1, epoch_done=epoch_done)
        aggregator.refresh()
        c1 = time.process_time()
        rss = peak_rss_mb()
    finally:
        if state["server"] is not None:
            state["server"].close()
    client = state["client"]
    sizes = campaign.epoch_sizes()
    fleets = {e: campaign.epoch_fleet(e) for e in range(len(sizes))}
    probes = sum(sizes)
    layers = finish_trace(tracer, workdir, probes, store_path, client)

    rng = random.Random(seed * 7919 + 1)
    groups = [checks.check_journal(store_path, epochs), checks.check_unchanged_specs(fleets, epochs)]
    for epoch, records in epochs.items():
        groups.append(checks.check_ground_truth(fleets[epoch], records))
        if len(records) != sizes[epoch]:
            groups.append([f"epoch {epoch}: {len(records)} records, epoch_sizes says {sizes[epoch]}"])
    for epoch in (0, len(sizes) - 1):
        picks = sample_indices(fleets[epoch], epochs[epoch], rng)
        groups.append(checks.check_same_records(
            f"reference engine, epoch {epoch}",
            reference_records(fleets[epoch], bundle.study, picks),
            [epochs[epoch][i] for i in picks],
        ))
    for seen, manifest in batches:
        done = {e: epochs[e] for e in range(seen["epoch"] + 1)}
        groups.append(check_batch(seen, done, sizes, manifest))
    return {
        "setup_s": setup_s,
        "measure_cpu_s": c1 - c0 - state["serve_cpu"],
        "probes": probes,
        "epoch_s": epoch_cpu,
        "peak_rss_mb": rss,
        "serve": client.samples,
        "attempted": probes + client.attempted,
        "failed": (probes - sum(len(r) for r in epochs.values())) + client.failed,
        "problems": checks.flatten(groups),
        "layers": layers,
    }


# -- tracing -------------------------------------------------------------------


def finish_trace(tracer, workdir: str, probes: int, store_path: str, client) -> Optional[dict]:
    """Stop recording, save the spans, and turn them into the per-layer
    metrics (see README.md for each definition)."""
    if tracer is None:
        return None
    tracer.uninstall()
    tracer.write(os.path.join(workdir, "spans.bin"))
    summary = tracer.summary()
    with open(os.path.join(workdir, "spans-summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return layer_metrics(summary, tracer.returns, probes, journal_bytes(store_path), client)


def layer_metrics(summary: dict, returns: dict, probes: int, jbytes: int, client) -> dict:
    def row(name):
        return summary.get(name, {"calls": 0, "outermost": 0, "cpu_s": 0.0, "self_cpu_s": 0.0, "wall_s": 0.0})

    def calls(name):
        return row(name)["calls"]

    def total_cpu(*names):
        return sum(row(n)["cpu_s"] for n in names)

    def per_call(name, scale, clock="cpu_s"):
        r = row(name)
        return r[clock] / r["outermost"] * scale if r["outermost"] else 0.0

    events = returns["sim.run"]
    served = {}
    for kind, ms, size in client.samples:
        served.setdefault(kind, []).append((ms, size))

    def median_ms(kind):
        values = [ms for ms, _size in served.get(kind, ())]
        return tracing.percentile(values, 0.5) or 0.0

    def median_bytes(kind):
        values = [size for _ms, size in served.get(kind, ())]
        return tracing.percentile(values, 0.5) or 0

    latencies = [ms for _kind, ms, _size in client.samples]
    table_ms = [ms for kind, ms, _size in client.samples if kind != "page"]
    measured = calls("study.measure_probe")
    return {
        "population.generate_s": total_cpu("population.generate"),
        "scenario.builds": calls("scenario.build"),
        "scenario.build_us": per_call("scenario.build", 1e6),
        "scenario.resets": calls("scenario.reset"),
        "scenario.reset_us": per_call("scenario.reset", 1e6),
        "route.adds": calls("route.add"),
        "route.add_us": per_call("route.add", 1e6),
        "study.measured": measured,
        "study.dedup_ratio": probes / measured if measured else 0.0,
        "study.ms_per_measured": per_call("study.measure_probe", 1e3),
        "sim.events": events,
        "sim.us_per_event": total_cpu("sim.run") / events * 1e6 if events else 0.0,
        "sim.transits": calls("sim.transmit"),
        "route.lookups": calls("route.lookup"),
        "route.lookup_us": per_call("route.lookup", 1e6),
        "dnswire.encodes": calls("dnswire.encode"),
        "dnswire.encode_us": per_call("dnswire.encode", 1e6),
        "dnswire.decodes": calls("dnswire.decode"),
        "dnswire.decode_us": per_call("dnswire.decode", 1e6),
        "measurement.exchanges": summary["measurement.outermost"]["calls"],
        "detector.heuristic_ms": per_call("detector.heuristic", 1e3),
        "detector.cert_ms": per_call("detector.cert", 1e3),
        "detector.fingerprint_ms": per_call("detector.fingerprint", 1e3),
        "journal.appends": calls("journal.append"),
        "journal.append_us": per_call("journal.append", 1e6),
        "journal.fsyncs": calls("journal.sync"),
        "journal.fsync_ms": per_call("journal.sync", 1e3, clock="wall_s"),
        "journal.bytes_per_record": jbytes / probes,
        "store.collect_s": total_cpu("store.collect"),
        "store.finalize_s": total_cpu("store.finalize"),
        "campaign.epoch_fleet_ms": total_cpu("campaign.epoch_fleet") * 1e3,
        "campaign.fingerprint_s": total_cpu("campaign.fingerprint"),
        "aggregate.refreshes": calls("aggregate.refresh"),
        "aggregate.entries": returns["aggregate.refresh"],
        "aggregate.fold_ms": total_cpu("aggregate.refresh") * 1e3,
        "analysis.tables_ms": total_cpu(
            "analysis.table4", "analysis.table5", "analysis.figure3",
            "analysis.figure4_countries", "analysis.figure4_organizations",
        ) * 1e3,
        "analysis.export_ms": total_cpu("analysis.save_study") * 1e3,
        "serve.p50_ms": tracing.percentile(table_ms, 0.5) or 0.0,
        "serve.page_ms": median_ms("page"),
        "serve.trend_ms": median_ms("trend"),
        "serve.epochs_ms": median_ms("epochs"),
        "serve.epoch_ms": median_ms("epoch"),
        "serve.manifest_ms": median_ms("manifest"),
        "serve.page_read_ms": per_call("serve.load_epoch_page", 1e3),
        "serve.trend_bytes": median_bytes("trend"),
        "serve.page_bytes": median_bytes("page"),
        "serve.p95_ms": tracing.percentile(latencies, 0.95) or 0.0,
        "serve.p99_ms": tracing.percentile(latencies, 0.99) or 0.0,
        "trace.spans": sum(r["calls"] for name, r in summary.items() if name != "measurement.outermost"),
    }


WORKLOADS = {
    "pilot-9800": study_round,
    "observed-dense": study_round,
    "campaign-live": campaign_round,
}
