#!/usr/bin/env python3
"""End-to-end smoke for `condspec serve`: start the daemon on an
ephemeral port, submit a quick sweep twice over HTTP, poll progress,
fetch the report, and assert the second submission is 100% persistent-
store hits. Saves the daemon's /api/store/stats document for the CI
artifact upload.

Usage: serve_smoke.py <condspec-binary> <scratch-dir>
"""

import json
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

TIMEOUT = 300  # generous: CI runners are slow and the sweep is tiny
SUBMIT = {"sweep": "icache", "iters": 2, "warmup": 1}


def api(base, path, body=None, raw=False):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode() if body is not None else None,
        method="POST" if body is not None else "GET",
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        payload = resp.read().decode()
    return payload if raw else json.loads(payload)


def await_done(base, sub_id):
    deadline = time.monotonic() + TIMEOUT
    while time.monotonic() < deadline:
        doc = api(base, f"/api/sweeps/{sub_id}")
        if doc["status"] in ("done", "error"):
            assert doc["status"] == "done", f"submission failed: {doc}"
            return doc
        time.sleep(0.25)
    sys.exit(f"submission {sub_id} did not finish in {TIMEOUT}s")


def table_rows(report):
    """The rendered table's rows below its `Benchmark` header, as cells."""
    lines = report.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("Benchmark"))
    rows = []
    for line in lines[start + 2:]:  # below the header and its rule
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def main():
    binary, scratch = sys.argv[1], Path(sys.argv[2])
    runs = scratch / "serve-runs"
    store = scratch / "serve-store"
    for d in (runs, store):
        if d.exists():
            subprocess.run(["rm", "-rf", str(d)], check=True)

    daemon = subprocess.Popen(
        [binary, "serve", "--addr", "127.0.0.1:0", "--jobs", "2",
         "--root", str(runs), "--store-root", str(store)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        # The first stdout line carries the ephemeral port.
        line = daemon.stdout.readline().strip()
        prefix = "condspec-serve listening on "
        assert line.startswith(prefix), f"unexpected banner: {line!r}"
        base = line[len(prefix):]

        assert api(base, "/api/health")["ok"] is True

        # Cold submission: every job simulated, none from the store.
        receipt = api(base, "/api/sweeps", SUBMIT)
        first = await_done(base, receipt["submission"])
        total = first["total"]
        assert total > 0 and first["simulated"] == total, first
        assert first["store_hits"] == 0 and first["failed"] == 0, first

        # Identical resubmission: 100% persistent-store hits.
        receipt2 = api(base, "/api/sweeps", SUBMIT)
        second = await_done(base, receipt2["submission"])
        assert second["store_hits"] == total, f"expected {total} hits: {second}"
        assert second["simulated"] == 0, second

        # The progress stream replays to completion as NDJSON.
        stream = api(base, f"/api/sweeps/{receipt['submission']}/stream", raw=True)
        last = json.loads(stream.strip().splitlines()[-1])
        assert last["status"] == "done" and last["done"] == total, last

        # Reports agree between submissions and with the by-id endpoint.
        rep1 = api(base, f"/api/sweeps/{receipt['submission']}/report", raw=True)
        rep2 = api(base, f"/api/sweeps/{receipt2['submission']}/report", raw=True)
        by_id = api(base, f"/api/report/{receipt['sweep_id']}", raw=True)
        assert rep1 and rep1 == rep2 == by_id, "report text diverged"

        # The scaled sweep renders from its own jobs: no benchmark cell
        # is empty, and the Average row fills the overhead column (its
        # cycle and stall columns are never averaged).
        rows = table_rows(rep1)
        assert len(rows) == 23 and rows[-1][0] == "Average", rep1
        for row in rows[:-1]:
            assert "-" not in row, f"empty cell in {row}: {rep1}"
        assert rows[-1][3] != "-", f"empty average overhead: {rep1}"

        # Store stats: one entry per job, saved for the Actions artifact.
        stats = api(base, "/api/store/stats")
        metrics = stats["metrics"]
        assert metrics["store.entries"] == total, metrics
        assert metrics["store.hits"] == total, metrics
        assert metrics["store.inserts"] == total, metrics
        out = scratch / "serve-store-stats.json"
        out.write_text(json.dumps(stats, indent=2) + "\n")

        api(base, "/api/shutdown", body={})
        daemon.wait(timeout=30)
        print(f"serve smoke ok: {total} jobs cold, {total} store hits warm, "
              f"stats in {out}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    main()
