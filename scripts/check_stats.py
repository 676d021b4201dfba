#!/usr/bin/env python3
"""Reconcile live stats scrapes from a running screen_serve daemon.

Takes RunReport JSON scrapes in the order they were taken (each one the
answer to a `screen_client --requests=0 --stats-out=...` hit on the
daemon's kStatRequest endpoint) and checks:

* every scrape parses as a screen_serve RunReport and carries the
  mandatory service counters;
* every counter is monotone non-decreasing across consecutive scrapes —
  they are all lifetime totals, so a counter going backwards means a
  torn snapshot, not load;
* nothing vanishes: a counter present in an earlier scrape is present
  in every later one;
* the last scrape reconciles: per-tenant SLO completions sum to the
  daemon-wide completion counter, admissions are conserved
  (admitted = completed + shed + still queued), a journaled daemon's
  replay counters agree (records, bytes, replay time), and the trace
  ring dropped nothing;
* with --prom FILE, the Prometheus text dump written at drain is
  well-formed (every sample belongs to a TYPE'd family, histogram
  buckets are cumulative and end in +Inf) and its counters dominate the
  last live scrape (the drain dump is taken after every scrape).

Exits 0 when everything reconciles, 1 with a message otherwise.

    scripts/check_stats.py scrape1.json scrape2.json --prom daemon.prom
"""
import json
import re
import sys

PROM_PREFIX = "swbpbc"
MIN_JOURNAL_FRAME = 24 + 1 + 8
REQUIRED_COUNTERS = (
    "service.requests",
    "service.admitted",
    "service.completed",
    "service.shed_deadline",
    "service.pairs_scored",
    "service.stat_scrapes",
)


def fail(where, message):
    print(f"check_stats: {where}: {message}", file=sys.stderr)
    return 1


def load_scrape(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "swbpbc.run_report":
        raise ValueError(f"unexpected schema {doc.get('schema')!r}")
    if doc.get("tool") != "screen_serve":
        raise ValueError(f"scrape from tool {doc.get('tool')!r}")
    metrics = doc.get("metrics", {})
    counters = metrics.get("counters", {})
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            raise ValueError(f"missing counter {name!r}")
    return doc


def check_monotone(paths, scrapes):
    status = 0
    for i in range(1, len(scrapes)):
        prev = scrapes[i - 1]["metrics"]["counters"]
        cur = scrapes[i]["metrics"]["counters"]
        for name, value in prev.items():
            if name not in cur:
                status |= fail(paths[i],
                               f"counter {name!r} vanished (present in "
                               f"{paths[i - 1]})")
            elif cur[name] < value:
                status |= fail(paths[i],
                               f"counter {name} went backwards: "
                               f"{value} -> {cur[name]}")
    return status


def check_reconciliation(path, doc):
    status = 0
    counters = doc["metrics"]["counters"]
    gauges = doc["metrics"].get("gauges", {})

    # Per-tenant SLO windows must account for every completion the
    # daemon counted — the rolling window ages samples out, but the
    # slo.<tenant>.completed counters are lifetime totals.
    slo_completed = sum(v for k, v in counters.items()
                        if re.fullmatch(r"slo\.[^.]+\.completed", k))
    if slo_completed != counters["service.completed"]:
        status |= fail(path,
                       f"SLO windows saw {slo_completed} completions, "
                       f"daemon counted {counters['service.completed']}")

    # Admission conservation: everything that entered the queue — live
    # admissions plus journal-recovered pending requests — either
    # completed, was shed on deadline, or is still queued right now.
    # Cache hits never enter the queue, so they sit outside the ledger.
    queued = int(gauges.get("service.queue.requests", 0))
    entered = (counters["service.admitted"]
               + counters.get("service.recovered_pending", 0))
    accounted = (counters["service.completed"]
                 + counters["service.shed_deadline"] + queued)
    if entered != accounted:
        status |= fail(path,
                       f"admitted+recovered={entered} but "
                       f"completed+shed+queued={accounted}")

    # Journal replay (a journaled daemon only): every replayed record
    # is at least a minimal frame (24-byte head, 1 kind byte, 8-byte
    # checksum), no bytes means no records, and the set-up time the
    # replay took is exported beside them.
    if "service.journal.replayed" in counters:
        replayed = counters["service.journal.replayed"]
        replayed_bytes = counters.get("service.journal.replayed_bytes")
        replay_ms = gauges.get("service.journal.replay_ms")
        if replayed_bytes is None or replay_ms is None:
            status |= fail(path, "service.journal.replayed is exported "
                                 "without replayed_bytes and replay_ms")
        elif (replayed_bytes < MIN_JOURNAL_FRAME * replayed
              or (replayed == 0) != (replayed_bytes == 0)):
            status |= fail(path,
                           f"journal replayed {replayed} records in "
                           f"{replayed_bytes} bytes")
        elif replay_ms < 0:
            status |= fail(path, f"journal replay took {replay_ms} ms")

    # The trace ring must not be silently losing spans under load.
    dropped = counters.get("telemetry.trace.dropped", 0)
    if dropped != 0:
        status |= fail(path, f"trace ring dropped {dropped} events — "
                             f"raise the ring capacity")
    return status


def parse_prom(path):
    """Returns ({family: type}, {sample_name_with_labels: value})."""
    families, samples = {}, {}
    name_re = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                m = re.match(r"# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
                             r"(counter|gauge|histogram)$", line)
                if m:
                    families[m.group(1)] = m.group(2)
                continue
            m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$",
                         line)
            if not m:
                raise ValueError(f"line {lineno}: unparsable sample {line!r}")
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            if not name_re.fullmatch(name):
                raise ValueError(f"line {lineno}: bad metric name {name!r}")
            samples[name + labels] = float(value)
    return families, samples


def prom_family(sample_name):
    base = sample_name.split("{", 1)[0]
    for suffix in ("_bucket", "_sum", "_count"):
        if base.endswith(suffix):
            stripped = base[:-len(suffix)]
            if stripped:
                return stripped, base
    return base, base


def check_prom(path, last_scrape):
    try:
        families, samples = parse_prom(path)
    except (OSError, ValueError) as e:
        return fail(path, str(e))
    if not samples:
        return fail(path, "dump holds no samples")
    status = 0

    # Every sample must belong to a declared family (histogram samples
    # via their _bucket/_sum/_count suffix).
    for sample in samples:
        family, base = prom_family(sample)
        if family not in families and base not in families:
            status |= fail(path, f"sample {sample} has no # TYPE family")

    # Histogram buckets must be cumulative and closed by +Inf == _count.
    for family, kind in families.items():
        if kind != "histogram":
            continue
        buckets = []
        for sample, value in samples.items():
            m = re.fullmatch(re.escape(family) + r'_bucket\{le="([^"]+)"\}',
                             sample)
            if m:
                le = float("inf") if m.group(1) == "+Inf" else float(
                    m.group(1))
                buckets.append((le, value))
        buckets.sort()
        if not buckets or buckets[-1][0] != float("inf"):
            status |= fail(path, f"histogram {family} has no +Inf bucket")
            continue
        for i in range(1, len(buckets)):
            if buckets[i][1] < buckets[i - 1][1]:
                status |= fail(path,
                               f"histogram {family} buckets not cumulative "
                               f"at le={buckets[i][0]}")
        count = samples.get(f"{family}_count")
        if count is not None and count != buckets[-1][1]:
            status |= fail(path, f"histogram {family}: _count={count} != "
                                 f"+Inf bucket {buckets[-1][1]}")

    # The drain dump is taken after every live scrape, so its counters
    # dominate the last scrape's.
    if last_scrape is not None:
        for name, value in last_scrape["metrics"]["counters"].items():
            sanitized = PROM_PREFIX + "_" + re.sub(r"[^a-zA-Z0-9_:]", "_",
                                                   name)
            if sanitized in samples and samples[sanitized] < value:
                status |= fail(path,
                               f"{sanitized}={samples[sanitized]} is below "
                               f"the last live scrape's {name}={value}")
    if status == 0:
        print(f"check_stats: {path}: OK ({len(samples)} samples, "
              f"{len(families)} families)")
    return status


def main(argv):
    prom_path = None
    paths = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--prom":
            prom_path = next(it, None)
            if prom_path is None:
                print("check_stats: --prom needs a file", file=sys.stderr)
                return 2
        else:
            paths.append(arg)
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    status = 0
    scrapes = []
    for path in paths:
        try:
            scrapes.append(load_scrape(path))
        except (OSError, ValueError, json.JSONDecodeError) as e:
            return fail(path, str(e))

    status |= check_monotone(paths, scrapes)
    status |= check_reconciliation(paths[-1], scrapes[-1])
    if prom_path is not None:
        status |= check_prom(prom_path, scrapes[-1])
    if status == 0:
        counters = scrapes[-1]["metrics"]["counters"]
        print(f"check_stats: OK ({len(paths)} scrapes, "
              f"admitted={counters['service.admitted']}, "
              f"completed={counters['service.completed']}, "
              f"scrapes_served={counters['service.stat_scrapes']})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
