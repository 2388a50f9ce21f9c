"""Run configuration shared by the CLI and the pipeline stages."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Any


@dataclass(frozen=True)
class RunConfig:
    """Tunables for the ingest/detect/resolve pipeline.

    The full config is serialized into every output header so any report can
    be reproduced from its inputs.
    """

    alpha: float = 0.97
    top_n: int = 3
    k: int = 1
    settling_window: int = 60
    bin_count: int = 5
    lookback_days: int | None = None
    seed: int = 0
    adopted_threshold: float = 0.6

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        for name in ("top_n", "k", "bin_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.settling_window <= 0:
            raise ValueError("settling_window must be positive")
        if self.lookback_days is not None and self.lookback_days < 1:
            raise ValueError("lookback_days must be positive when set")
        if not 0 < self.adopted_threshold <= 1:
            raise ValueError("adopted_threshold must be in (0, 1]")

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)
