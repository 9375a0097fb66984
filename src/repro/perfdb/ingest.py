"""Normalize every measurement source into :class:`RunRecord` rows.

Sources:

* **Record payloads** — a JSON document (any file name) whose top level
  is an object carrying a ``records`` list of canonical record dicts,
  which is what ``benchmarks/ladder`` writes as its ``result.json``;
  the records are taken verbatim (source and PR tag filled from the
  file name when absent).  Any other JSON document is rejected with a
  :class:`ValueError` naming the file and what was found.
* **Record JSONL** — one record dict per line: a
  :class:`~repro.perfdb.store.PerfDB` file, ``repro-perfdb export``
  output and the tracked ``perf_history.jsonl`` (the measurements of
  PR 1–10, frozen).  Every whole line must be a record; only a torn
  last line is skipped.
* **Campaign manifests** — the JSONL journals of
  :mod:`repro.campaign.manifest`.  Each ``run-done`` event becomes a
  record, built from the config the event carries.
* **Result caches** — :class:`repro.campaign.cache.ResultCache`
  directories; entries carry full configs and phase breakdowns.

The journal and cache readers are total: unrecognized or torn lines are
skipped, never fatal, so a half-written journal yields the records it
can instead of an exception.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .record import RunRecord, pr_from_source

# -- campaign sources -----------------------------------------------------


#: RunRecord phase field -> the per-step key a worker result carries
_PHASE_KEYS = {
    "compute_s": "compute_s_mean", "comm_s": "comm_s_mean",
    "sync_s": "wait_s_mean", "recovery_s": "recovery_s_mean",
    "nbytes": "nbytes", "messages": "messages",
}


def _phase_totals(result: Mapping[str, Any]) -> dict[str, float | None]:
    """Whole-run per-rank-mean phase seconds from a worker result dict."""
    phases = result.get("phases")
    if not isinstance(phases, list) or not phases:
        return {}
    steps = max(int(result.get("steps") or 1), 1)
    phases = [p for p in phases if isinstance(p, dict)]
    return {
        field: steps * sum(float(p.get(key, 0.0)) for p in phases)
        for field, key in _PHASE_KEYS.items()
    }


def _record_from_config_result(
    config: Mapping[str, Any],
    *,
    bench: str,
    wall_s: float,
    gflops: float | None,
    result: Mapping[str, Any] | None = None,
    source: str = "",
    key: str | None = None,
    host: str | None = None,
    cpu_count: int | None = None,
    version: str | None = None,
    executor: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> RunRecord:
    """One record from a RunConfig dict plus its measured outcome.

    The record is filed under the executor that ran (the result's, or
    ``executor`` as journaled), which is serial where the config's
    could not run; older results lack it and fall back to the config's.
    """
    phase = _phase_totals(result or {})
    res = result or {}
    return RunRecord(
        extra=dict(extra) if extra else (),
        app=str(config.get("app", "")),
        bench=bench,
        variant=str(res.get("label") or config.get("label") or ""),
        machine=config.get("machine"),
        nprocs=config.get("nprocs") or res.get("nprocs"),
        executor=str(
            res.get("executor") or executor
            or config.get("executor", "serial")
        ),
        kernel_backend=str(config.get("kernel_backend", "numpy")),
        seed=config.get("seed"),
        steps=config.get("steps"),
        repeats=config.get("repeats"),
        wall_s=float(wall_s),
        gflops=gflops,
        source=source,
        pr=pr_from_source(source),
        key=key,
        host=res.get("host", host),
        cpu_count=res.get("cpu_count", cpu_count),
        version=res.get("version", version),
        **phase,
    )


def records_from_manifest(
    path: "str | Path", *, source: str | None = None
) -> list[RunRecord]:
    """Records from a campaign JSONL journal (torn lines tolerated).

    Each ``run-done`` event becomes a record built from the ``config``
    it carries; ``campaign-start`` names the series and the host.
    """
    from ..campaign.manifest import read_events

    p = Path(path)
    if source is None:
        source = f"manifest:{p.name}"
    name = "campaign"
    host = cpu_count = version = None
    records: list[RunRecord] = []
    for event in read_events(p):
        kind = event.get("event")
        if kind == "campaign-start":
            name = str(event.get("name") or "campaign")
            hostinfo = event.get("host") or {}
            host = hostinfo.get("name")
            cpu_count = hostinfo.get("cpu_count")
            version = event.get("version")
            continue
        config = event.get("config")
        if kind != "run-done" or not isinstance(config, dict):
            continue
        config = {"label": event.get("label"), **config}
        # per-event provenance outranks the campaign-start block: a
        # distrib campaign computes different cells on different
        # hosts, and run-done events journal where each one ran.
        # (campaign-start carries host as a {"name", "cpu_count"}
        # dict; run-done carries a plain hostname string.)
        ev_host = event.get("host")
        worker = event.get("worker")
        records.append(
            _record_from_config_result(
                config,
                bench=f"campaign:{name}",
                wall_s=float(event.get("wall_s", 0.0)),
                gflops=event.get("gflops"),
                source=source,
                key=str(event.get("key")),
                host=ev_host if isinstance(ev_host, str) else host,
                cpu_count=event.get("cpu_count", cpu_count),
                version=event.get("version") or version,
                executor=event.get("executor"),
                extra={"worker": str(worker)} if worker else None,
            )
        )
    return records


def records_from_cache(
    root: "str | Path", *, source: str = "cache"
) -> list[RunRecord]:
    """Records from every readable ResultCache entry under ``root``."""
    from ..campaign.cache import ResultCache

    records: list[RunRecord] = []
    for entry in ResultCache(root).entries():
        config = entry.get("config")
        result = entry.get("result")
        if not isinstance(config, dict) or not isinstance(result, dict):
            continue
        records.append(
            _record_from_config_result(
                config,
                bench="cache",
                wall_s=float(result.get("wall_s", 0.0)),
                gflops=result.get("gflops"),
                result=result,
                source=source,
                key=entry.get("key"),
                version=entry.get("version"),
            )
        )
    return records


def records_from_report(
    report: Any, *, source: str = "", bench: str | None = None
) -> list[RunRecord]:
    """Records from a live :class:`~repro.campaign.report.CampaignReport`."""
    import os
    import socket

    from .. import __version__

    host = socket.gethostname()
    cpu_count = os.cpu_count() or 1
    if bench is None:
        bench = f"campaign:{report.spec.name}"
    records: list[RunRecord] = []
    for row in report.rows:
        if not row.ok:
            continue
        records.append(
            _record_from_config_result(
                row.config.to_dict(),
                bench=bench,
                wall_s=row.wall_s,
                gflops=row.gflops,
                result=row.result,
                source=source or f"report:{report.spec.name}",
                key=row.key,
                host=host,
                cpu_count=cpu_count,
                version=__version__,
            )
        )
    return records


# -- the one-call entry point ---------------------------------------------

def _json_or_none(data: bytes) -> Any:
    try:
        return json.loads(data)
    except ValueError:
        return None


def _as_record(obj: Any) -> RunRecord | None:
    try:
        return RunRecord.from_dict(obj)
    except (TypeError, ValueError):
        return None


def _records_from_payload(payload: Any, name: str) -> list[RunRecord]:
    """Records from a ``{"records": [...]}`` JSON document, or ValueError."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"{name}: top level is a {type(payload).__name__}, "
            "expected an object with a 'records' list"
        )
    rows = payload.get("records")
    if not isinstance(rows, list):
        raise ValueError(
            f"{name}: no 'records' list among top-level keys "
            + (", ".join(sorted(map(str, payload))) or "(none)")
        )
    pr = pr_from_source(name)
    records: list[RunRecord] = []
    for i, row in enumerate(rows):
        try:
            if not isinstance(row, dict):
                raise TypeError(f"a {type(row).__name__}, not an object")
            rec = RunRecord.from_dict(row)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{name}: records[{i}] is not a RunRecord: {exc}"
            ) from exc
        records.append(rec.with_provenance(source=name, pr=pr))
    return records


def read_store(data: bytes, name: str) -> tuple[list[RunRecord], int]:
    """The records of record-JSONL bytes (a store, an export,
    ``perf_history.jsonl``) and the offset where they end.

    Every non-blank line must be a record, except a last line that
    starts a JSON object it does not finish: a writer died mid-append,
    and the offset stops before that torn line.  Anything else, an
    SQLite ``perf.db`` from an older version among them, is a ValueError.
    """
    if data.startswith(b"SQLite format 3\0"):
        raise ValueError(
            f"{name} is an SQLite perfdb from an older version; "
            "re-ingest its sources into a fresh store"
        )
    *lines, tail = data.split(b"\n")
    torn = tail.lstrip().startswith(b"{") and _json_or_none(tail) is None
    records: list[RunRecord] = []
    for number, line in enumerate(lines if torn else lines + [tail], 1):
        if line.strip():
            rec = _as_record(_json_or_none(line))
            if rec is None:
                raise ValueError(
                    f"{name}: line {number} is not a perfdb record"
                )
            records.append(rec)
    return records, len(data) - len(tail) if torn else len(data)


def ingest_path(path: "str | Path") -> list[RunRecord]:
    """Records from *any* supported on-disk source, told apart by content:
    a directory is a ResultCache; one JSON document, other than a lone
    record or event, is a ``{"records": [...]}`` payload; JSONL whose
    first line is a campaign event is a manifest; anything else is
    record JSONL (:func:`read_store`), and must yield a record unless
    it is empty."""
    p = Path(path)
    if p.is_dir():
        return records_from_cache(p, source=f"cache:{p.name}")
    data = p.read_bytes()
    doc = _json_or_none(data)
    is_line = isinstance(doc, dict) and (
        "event" in doc or _as_record(doc) is not None
    )
    if doc is not None and not is_line:
        return _records_from_payload(doc, p.name)
    first = _json_or_none(data.lstrip().split(b"\n", 1)[0])
    if isinstance(first, dict) and "event" in first:
        return records_from_manifest(p)
    records, _end = read_store(data, p.name)
    if not records and data.strip():
        raise ValueError(
            f"{p.name}: no record, records payload or campaign event"
        )
    return records
