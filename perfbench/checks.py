"""Correctness checks for the benchmark's workloads.

Every check is a pure function that returns a list of problems (empty
when the output is right). Each one compares the program's output with
a computation made here, from the generated inputs or from the records
themselves, or with a property the method must have; none compares with
a saved copy of an earlier run's output.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Iterable, Mapping, Optional, Sequence

from repro.atlas.population import PROVIDERS
from repro.atlas.probe import InterceptorLocation
from repro.interceptors.policy import InterceptMode
from repro.net.addr import parse_ip
from repro.resolvers.public import PROVIDER_SPECS

#: Paper anchors (§4, pilot study at seed 2021).
TABLE4_V4 = {"Cloudflare DNS": 165, "Google DNS": 160, "Quad9": 156, "OpenDNS": 156}
TABLE4_V4_ALL = 108
#: Largest allowed |measured - paper| per Table 4 IPv4 cell.
TABLE4_TOLERANCE = 5
TABLE5_ROWS = {
    "dnsmasq-*": 23,
    "dnsmasq-pi-hole-*": 8,
    "unbound*": 6,
    "*-RedHat": 2,
}
TABLE5_SINGLETONS = 10


def record_dict(record) -> dict:
    """A record as plain JSON data, built field by field from the
    dataclass (independently of the program's own serializer)."""
    out = {}
    for name, value in vars(record).items():
        if name.startswith("_"):
            continue
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[name] = value
    return json.loads(json.dumps(out))


# -- ground truth ------------------------------------------------------------


def _catches(policy, address: str, family: int) -> bool:
    if not policy.plaintext or family not in policy.families:
        return False
    ip = parse_ip(address)
    if ip in policy.allowed:
        return False
    return policy.targets is None or ip in policy.targets


def _visible(spec, policies, family: int) -> bool:
    """Does any of ``policies`` catch a query the probe really sends
    (in ``family``, to a provider the probe answers for)?"""
    responds = spec.responds_v4 if family == 4 else spec.responds_v6
    for index, provider in enumerate(PROVIDERS):
        if not responds[index]:
            continue
        for address in PROVIDER_SPECS[provider].addresses_for_family(family):
            if any(_catches(policy, address, family) for policy in policies):
                return True
    return False


def expected_verdict(spec) -> str:
    """The locator verdict the generator's ground truth calls for.

    ``true_location`` maps onto the verdicts one to one, with the two
    classes the paper documents as ambiguous: an in-ISP box that lets
    bogon-destined queries die reads ``unknown`` (§3.3), and an open-WAN
    forwarder behind an ISP redirect reads ``cpe`` (§6). An interceptor
    that only catches resolvers the probe never measures is invisible.
    The locator works in IPv4, or in IPv6 when only IPv6 shows
    interception.
    """
    if not spec.online:
        return "no-data"
    truth = spec.true_location()
    if truth is InterceptorLocation.NONE:
        return "not-intercepted"
    if truth is InterceptorLocation.CPE:
        return "cpe"
    families = (4, 6) if spec.has_ipv6 else (4,)
    if truth is InterceptorLocation.BEYOND:
        seen = any(_visible(spec, spec.external_policies, f) for f in families)
        return "unknown" if seen else "not-intercepted"
    policies = [p for p in spec.isp.middlebox_policies if p.plaintext]
    family = next((f for f in families if _visible(spec, policies, f)), None)
    if family is None:
        return "not-intercepted"
    policies = [p for p in policies if family in p.families]
    if spec.firmware.wan_port53_open and any(
        p.mode is InterceptMode.REDIRECT for p in policies
    ):
        return "cpe"
    if not any(p.intercept_bogons for p in policies):
        return "unknown"
    return "within-isp"


def check_ground_truth(specs: Sequence, records: Sequence) -> list[str]:
    problems = []
    if len(specs) != len(records):
        return [f"{len(records)} records for {len(specs)} probes"]
    for spec, record in zip(specs, records):
        if record.probe_id != spec.probe_id:
            problems.append(f"record for {record.probe_id} in slot of {spec.probe_id}")
            continue
        want = expected_verdict(spec)
        if record.verdict != want:
            problems.append(
                f"probe {spec.probe_id}: verdict {record.verdict}, "
                f"ground truth calls for {want}"
            )
    return problems[:20]


def check_same_records(label: str, got: Sequence, want: Sequence) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} records, expected {len(want)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    if bad:
        return [f"{label}: {len(bad)} records differ (first at index {bad[0]})"]
    return []


# -- the store's journal -----------------------------------------------------


def read_journal_lines(store_path: str) -> list[dict]:
    """Every record line of a store's journal, parsed here."""
    journal = os.path.join(store_path, "journal")
    entries = []
    for name in sorted(os.listdir(journal)):
        if not (name.startswith("records-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(journal, name), encoding="utf-8") as handle:
            entries.extend(json.loads(line) for line in handle if line.strip())
    return entries


def check_journal(store_path: str, epochs: Mapping[int, Sequence]) -> list[str]:
    """The journal holds exactly one line per ``(epoch, index)`` and each
    line's record equals the one the run returned."""
    problems = []
    seen: Counter = Counter()
    for entry in read_journal_lines(store_path):
        epoch, index = int(entry.get("e", 0)), int(entry["i"])
        seen[epoch, index] += 1
        records = epochs.get(epoch)
        if records is None or not 0 <= index < len(records):
            problems.append(f"journal line for unknown slot ({epoch}, {index})")
        elif entry["record"] != record_dict(records[index]):
            problems.append(f"journal record ({epoch}, {index}) differs from the run's")
    for epoch, records in epochs.items():
        for index in range(len(records)):
            if seen[epoch, index] != 1:
                problems.append(
                    f"({epoch}, {index}) journaled {seen[epoch, index]} times"
                )
    return problems[:20]


# -- serve responses ---------------------------------------------------------


def epoch_counts(records: Sequence) -> dict:
    """The counters an epoch table must hold, recounted from records."""
    table = {
        "measured": len(records),
        "online": sum(1 for r in records if r.online),
        "verdicts": Counter(r.verdict for r in records),
        "transparency": Counter(r.transparency for r in records),
        "true_locations": Counter(r.true_location for r in records),
        "evasion_outcomes": Counter(
            r.evasion_outcome for r in records if r.evasion_outcome is not None
        ),
        "cert_verdicts": Counter(
            r.cert_verdict for r in records if r.cert_verdict is not None
        ),
        "agreement": Counter(
            f"{r.verdict}|{r.cert_verdict}"
            for r in records
            if r.cert_verdict is not None
        ),
    }
    return table


def check_epoch_table(table: dict, epoch: int, records: Sequence, size: int) -> list[str]:
    want = epoch_counts(records)
    problems = []
    if table.get("epoch") != epoch:
        problems.append(f"epoch table labelled {table.get('epoch')}, asked for {epoch}")
    if table.get("fleet_size") != size:
        problems.append(f"epoch {epoch}: fleet_size {table.get('fleet_size')} != {size}")
    if table.get("complete") != (len(records) >= size > 0):
        problems.append(f"epoch {epoch}: complete flag {table.get('complete')}")
    for key, value in want.items():
        got = table.get(key)
        if isinstance(value, Counter):
            got = Counter(got or {})
        if got != value:
            problems.append(f"epoch {epoch}: {key} is {got}, records give {value}")
    return problems


def check_trend(trend: dict, epochs: Mapping[int, Sequence], sizes: Sequence[int]) -> list[str]:
    tables = trend.get("epochs", [])
    if len(tables) != len(sizes):
        return [f"/trend lists {len(tables)} epochs, store has {len(sizes)}"]
    problems = []
    for epoch, table in enumerate(tables):
        problems += check_epoch_table(table, epoch, epochs.get(epoch, ()), sizes[epoch])
    series = trend.get("series", {})
    if series.get("measured") != [len(epochs.get(e, ())) for e in range(len(sizes))]:
        problems.append(f"/trend measured series {series.get('measured')}")
    for name, values in series.get("verdicts", {}).items():
        want = [
            sum(1 for r in epochs.get(e, ()) if r.verdict == name)
            for e in range(len(sizes))
        ]
        if values != want:
            problems.append(f"/trend verdict series {name}: {values} != {want}")
    return problems


def check_epochs_index(index: dict, epochs: Mapping[int, Sequence], sizes: Sequence[int]) -> list[str]:
    rows = index.get("epochs", [])
    want = [
        {
            "epoch": e,
            "fleet_size": size,
            "measured": len(epochs.get(e, ())),
            "complete": len(epochs.get(e, ())) >= size > 0,
        }
        for e, size in enumerate(sizes)
    ]
    return [] if rows == want else [f"/epochs is {rows}, records give {want}"]


def check_page(page: dict, epoch: int, offset: int, limit: int, records: Sequence) -> list[str]:
    want = {
        "epoch": epoch,
        "total": len(records),
        "offset": offset,
        "limit": limit,
        "probes": [
            {"index": i, "record": record_dict(records[i])}
            for i in range(offset, min(offset + limit, len(records)))
        ],
    }
    if page == want:
        return []
    return [f"/probes?epoch={epoch}&offset={offset}&limit={limit} differs from the records"]


# -- workload-specific properties ---------------------------------------------


def check_pilot_anchors(table4, table5) -> list[str]:
    """Table 4/5 of the seed-2021 pilot against the paper."""
    problems = []
    rows = {row.provider: row for row in table4.rows}
    for provider, paper in TABLE4_V4.items():
        got = rows[provider].intercepted_v4
        if abs(got - paper) > TABLE4_TOLERANCE:
            problems.append(f"Table 4 {provider} IPv4 {got}, paper {paper}")
    if abs(table4.all_intercepted.intercepted_v4 - TABLE4_V4_ALL) > TABLE4_TOLERANCE:
        problems.append(
            f"Table 4 all-four IPv4 {table4.all_intercepted.intercepted_v4}, "
            f"paper {TABLE4_V4_ALL}"
        )
    if table4.all_intercepted.intercepted_v6 != 0:
        problems.append(f"Table 4 all-four IPv6 {table4.all_intercepted.intercepted_v6}, paper 0")
    counts = dict(table5.counts)
    for family, paper in TABLE5_ROWS.items():
        if counts.get(family) != paper:
            problems.append(f"Table 5 {family}: {counts.get(family)}, paper {paper}")
    singletons = [f for f, c in counts.items() if f not in TABLE5_ROWS and c == 1]
    if len(singletons) != TABLE5_SINGLETONS or len(counts) != len(TABLE5_ROWS) + TABLE5_SINGLETONS:
        problems.append(f"Table 5 tail {sorted(counts.items())}, paper has ten singletons")
    if sum(counts.values()) != 49:
        problems.append(f"Table 5 totals {sum(counts.values())} CPE verdicts, paper 49")
    return problems


def check_table4_recount(table4, records: Sequence) -> list[str]:
    """Table 4 against a recount of the records' provider statuses."""
    problems = []
    for row in table4.rows:
        for family, got in ((4, row.intercepted_v4), (6, row.intercepted_v6)):
            want = sum(
                1
                for r in records
                if (row.provider, family, "intercepted") in r.provider_status
            )
            if got != want:
                problems.append(f"Table 4 {row.provider} IPv{family}: {got} != {want}")
    return problems


def check_majority_located(records: Sequence) -> list[str]:
    intercepted = [r for r in records if r.is_intercepted]
    located = sum(1 for r in intercepted if r.verdict in ("cpe", "within-isp"))
    if 2 * located <= len(intercepted):
        return [f"only {located} of {len(intercepted)} intercepted probes located in CPE or ISP"]
    return []


def check_dense(specs: Sequence, records: Sequence, metrics, agreement: dict) -> list[str]:
    problems = []
    counters = metrics.counters
    offline = sum(1 for s in specs if not s.online)
    if counters.get("study.probes.measured") != len(specs):
        problems.append(
            f"metrics count {counters.get('study.probes.measured')} measured, fleet has {len(specs)}"
        )
    if counters.get("study.probes.offline", 0) != offline:
        problems.append(
            f"metrics count {counters.get('study.probes.offline')} offline, fleet has {offline}"
        )
    fingerprinted = [r for r in records if r.fingerprint_signature]
    if not fingerprinted:
        problems.append("no probe was fingerprinted")
    for r in fingerprinted:
        if r.true_software is None or r.fingerprint_software != r.true_software:
            problems.append(
                f"probe {r.probe_id}: fingerprint names {r.fingerprint_software}, "
                f"truth is {r.true_software}"
            )
    cells = sum(sum(row.values()) for row in agreement["matrix"].values())
    online = sum(1 for r in records if r.online)
    if cells != online:
        problems.append(f"agreement cells sum to {cells}, {online} probes online")
    return problems[:20]


def check_unchanged_specs(fleets: Mapping[int, Sequence], epochs: Mapping[int, Sequence]) -> list[str]:
    """A probe whose spec did not change between epochs keeps its record."""
    problems = []
    for epoch in sorted(fleets)[1:]:
        before = {
            s.probe_id: (s, r) for s, r in zip(fleets[epoch - 1], epochs[epoch - 1])
        }
        for spec, record in zip(fleets[epoch], epochs[epoch]):
            prior = before.get(spec.probe_id)
            if prior is not None and prior[0] == spec and prior[1] != record:
                problems.append(
                    f"probe {spec.probe_id}: unchanged spec, record changed at epoch {epoch}"
                )
    return problems[:20]


def flatten(groups: Iterable[Optional[list[str]]]) -> list[str]:
    return [p for group in groups if group for p in group]
