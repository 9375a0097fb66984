"""Normalize every measurement source into :class:`RunRecord` rows.

Sources:

* **Record payloads** — a ``.json`` file whose top level is an object
  carrying a ``records`` list of canonical record dicts, which is what
  ``benchmarks/ladder`` writes as its ``result.json``; the records are
  taken verbatim (source and PR tag filled from the file name when
  absent).  Any other JSON is rejected with a :class:`ValueError`
  naming the file and what was found.
* **Record JSONL** — one record dict per line: ``repro-perfdb export``
  output and the tracked ``perf_history.jsonl`` (the measurements of
  PR 1–10, frozen).
* **Campaign manifests** — the JSONL journals of
  :mod:`repro.campaign.manifest`.  ``run-done`` events become records;
  configs come from the events themselves (new journals embed them) or
  from expanding the journaled spec and matching content keys.
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


def _phase_totals(result: Mapping[str, Any]) -> dict[str, float | None]:
    """Whole-run per-rank-mean phase seconds from a worker result dict."""
    phases = result.get("phases")
    if not isinstance(phases, list) or not phases:
        return {}
    steps = result.get("steps") or 1
    totals = {"compute": 0.0, "comm": 0.0, "sync": 0.0,
              "recovery": 0.0, "nbytes": 0.0, "messages": 0.0}
    for p in phases:
        if not isinstance(p, dict):
            continue
        totals["compute"] += float(p.get("compute_s_mean", 0.0))
        totals["comm"] += float(p.get("comm_s_mean", 0.0))
        totals["sync"] += float(p.get("wait_s_mean", 0.0))
        totals["recovery"] += float(p.get("recovery_s_mean", 0.0))
        totals["nbytes"] += float(p.get("nbytes", 0.0))
        totals["messages"] += float(p.get("messages", 0.0))
    s = max(int(steps), 1)
    return {
        "compute_s": totals["compute"] * s,
        "comm_s": totals["comm"] * s,
        "sync_s": totals["sync"] * s,
        "recovery_s": totals["recovery"] * s,
        "nbytes": totals["nbytes"] * s,
        "messages": totals["messages"] * s,
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

    ``run-done`` events become records.  Configs are taken from the
    events that carry them (journals written by this version embed
    ``config`` in ``run-start``/``run-done``); for older journals the
    spec in ``campaign-start`` is expanded and matched by content key.
    """
    from ..campaign.manifest import read_events
    from ..campaign.spec import CampaignSpec

    p = Path(path)
    if source is None:
        source = f"manifest:{p.name}"
    name = "campaign"
    host = cpu_count = version = None
    configs_by_key: dict[str, dict[str, Any]] = {}
    records: list[RunRecord] = []
    for event in read_events(p):
        kind = event.get("event")
        if kind == "campaign-start":
            name = str(event.get("name") or "campaign")
            hostinfo = event.get("host") or {}
            host = hostinfo.get("name")
            cpu_count = hostinfo.get("cpu_count")
            version = event.get("version")
            spec_dict = event.get("spec")
            if isinstance(spec_dict, dict):
                try:
                    spec = CampaignSpec.from_dict(spec_dict)
                    for cfg in spec.expand():
                        configs_by_key.setdefault(
                            cfg.key(version) if version else cfg.key(),
                            cfg.to_dict(),
                        )
                except (TypeError, ValueError):
                    pass
        elif kind in ("run-start", "run-done"):
            cfg = event.get("config")
            if isinstance(cfg, dict):
                configs_by_key[str(event.get("key"))] = cfg
        if kind != "run-done":
            continue
        key = str(event.get("key"))
        config = configs_by_key.get(key)
        if config is None:
            continue  # unmatchable legacy event: nothing to normalize
        config = dict(config)
        config.setdefault("label", event.get("label"))
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
                key=key,
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


def _records_from_payload(p: Path) -> list[RunRecord]:
    """Records from a ``{"records": [...]}`` JSON file, or ValueError."""
    payload = json.loads(p.read_text())
    if not isinstance(payload, dict):
        raise ValueError(
            f"{p.name}: top level is a {type(payload).__name__}, "
            "expected an object with a 'records' list"
        )
    rows = payload.get("records")
    if not isinstance(rows, list):
        raise ValueError(
            f"{p.name}: no 'records' list among top-level keys "
            + (", ".join(sorted(map(str, payload))) or "(none)")
        )
    pr = pr_from_source(p.name)
    records: list[RunRecord] = []
    for i, row in enumerate(rows):
        try:
            if not isinstance(row, dict):
                raise TypeError(f"a {type(row).__name__}, not an object")
            rec = RunRecord.from_dict(row)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{p.name}: records[{i}] is not a RunRecord: {exc}"
            ) from exc
        records.append(rec.with_provenance(source=p.name, pr=pr))
    return records


def ingest_path(path: "str | Path") -> list[RunRecord]:
    """Records from *any* supported on-disk source.

    Dispatch: a directory is a ResultCache; ``*.jsonl`` is a campaign
    manifest (falling back to record-JSONL lines if no events match);
    anything else must be a ``{"records": [...]}`` JSON payload.
    """
    p = Path(path)
    if p.is_dir():
        return records_from_cache(p, source=f"cache:{p.name}")
    if p.suffix == ".jsonl":
        records = records_from_manifest(p)
        if records:
            return records
        # not a manifest (or an empty one): try record-JSONL lines
        out: list[RunRecord] = []
        with p.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(obj, dict) and "event" not in obj:
                    try:
                        out.append(RunRecord.from_dict(obj))
                    except (TypeError, ValueError):
                        continue
        return out
    return _records_from_payload(p)
