"""Aggregated view of one campaign invocation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .spec import CampaignSpec, RunConfig


@dataclass
class ConfigResult:
    """Outcome of one config within a campaign invocation."""

    config: RunConfig
    key: str
    cached: bool = False
    ok: bool = True
    wall_s: float = 0.0
    gflops: float = 0.0
    error: str | None = None
    result: dict[str, Any] | None = None

    @property
    def status(self) -> str:
        if not self.ok:
            return "FAILED"
        return "hit" if self.cached else "miss"


@dataclass
class CampaignReport:
    """Everything one :func:`~repro.campaign.engine.run_campaign` did."""

    spec: CampaignSpec
    rows: list[ConfigResult] = field(default_factory=list)
    #: Real seconds the whole invocation took (scheduling included).
    wall_s: float = 0.0
    scheduler: str = "serial"

    @property
    def hits(self) -> int:
        return sum(1 for r in self.rows if r.ok and r.cached)

    @property
    def misses(self) -> int:
        return sum(1 for r in self.rows if r.ok and not r.cached)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.rows if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def executed_wall_s(self) -> float:
        """Summed per-run wall-clock of the runs actually executed."""
        return sum(r.wall_s for r in self.rows if r.ok and not r.cached)

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "scheduler": self.scheduler,
            "wall_s": self.wall_s,
            "hits": self.hits,
            "misses": self.misses,
            "failures": self.failures,
            "rows": [
                {
                    "key": r.key,
                    "label": r.config.label,
                    "config": r.config.to_dict(),
                    "status": r.status,
                    "wall_s": r.wall_s,
                    "gflops": r.gflops,
                    "error": r.error,
                }
                for r in self.rows
            ],
        }

    def render(self) -> str:
        """ASCII per-config table plus the hit/miss/time footer."""
        width = max([len(r.config.label) for r in self.rows] or [10])
        width = max(width, len("config"))
        lines = [
            f"campaign {self.spec.name!r}: {len(self.rows)} config(s) "
            f"via {self.scheduler}",
            f"{'config':<{width}}  {'status':>6}  "
            f"{'wall s':>9}  {'Gflop/s':>9}",
        ]
        for r in self.rows:
            gf = f"{r.gflops:9.3f}" if r.ok else "        -"
            wall = f"{r.wall_s:9.3f}" if r.ok else "        -"
            lines.append(
                f"{r.config.label:<{width}}  "
                f"{r.status:>6}  {wall}  {gf}"
            )
            if r.error:
                lines.append(f"{'':<{width}}  ! {r.error}")
        lines.append(
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.failures} failure(s); "
            f"campaign wall {self.wall_s:.3f} s "
            f"(executed runs {self.executed_wall_s:.3f} rank-process s)"
        )
        return "\n".join(lines)
