"""Run configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .protocol import MODE_MULTI, MODE_SINGLE


@dataclass
class SimulationConfig:
    """Knobs for one simulation run; defaults are the 10-node desk scenario.

    Run settings, read by ``engine.run``: mode, k, horizon_s, path_updates_per_s,
    load_window_s, buffer_packets, propagation_delay_s, epsilon_mbps.
    Scenario settings, read by ``cli.build_inputs``: seed, nodes, edges,
    prefixes, interests, interest_window_s. Output settings, read by the
    summary and the output files: warmup_s, cooldown_start_s, histogram_bin_s,
    out_dir. ``k`` left unset resolves to 3 in multi mode and 1 in single mode,
    which uses one path and so takes no other k. A NaN or infinite float fails
    validation.
    """

    seed: int = 0
    nodes: int = 10
    edges: int = 30
    prefixes: int = 15
    interests: int = 1000
    mode: str = MODE_SINGLE
    k: int | None = None
    horizon_s: float = 1000.0
    interest_window_s: float = 950.0
    path_updates_per_s: float = 5.0
    load_window_s: float = 1.0
    buffer_packets: int = 64
    propagation_delay_s: float = 0.0
    warmup_s: float = 50.0
    cooldown_start_s: float = 950.0
    epsilon_mbps: float = 1.0
    histogram_bin_s: float = 0.1
    out_dir: str = "out"

    def __post_init__(self):
        if self.k is None:
            self.k = 3 if self.mode == MODE_MULTI else 1

    def _require_finite(self, names):
        # A check like `x <= 0` lets NaN through, and inf passes every upper-bound-free check.
        for name in names:
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {value}")

    def validate_run(self) -> "SimulationConfig":
        """Check the run settings: raise ValueError for a bad one, else return self."""
        self._require_finite(("horizon_s", "path_updates_per_s", "load_window_s", "propagation_delay_s",
                              "epsilon_mbps"))
        if self.mode not in (MODE_SINGLE, MODE_MULTI):
            raise ValueError(f"mode must be single or multi, got {self.mode!r}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.mode == MODE_SINGLE and self.k != 1:
            raise ValueError(f"k must be 1 in single mode, got {self.k}")
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {self.horizon_s}")
        if self.path_updates_per_s <= 0:
            raise ValueError(f"path_updates_per_s must be positive, got {self.path_updates_per_s}")
        if self.load_window_s <= 0:
            raise ValueError(f"load_window_s must be positive, got {self.load_window_s}")
        if self.buffer_packets < 1:
            raise ValueError(f"buffer_packets must be at least 1, got {self.buffer_packets}")
        if self.propagation_delay_s < 0:
            raise ValueError(f"propagation_delay_s must be non-negative, got {self.propagation_delay_s}")
        if self.epsilon_mbps <= 0:
            raise ValueError(f"epsilon_mbps must be positive, got {self.epsilon_mbps}")
        return self

    def validate(self) -> "SimulationConfig":
        """Check every setting, run settings first: raise ValueError for a bad one, else return self."""
        self.validate_run()
        self._require_finite(f.name for f in fields(self) if f.type == "float")
        if self.nodes < 2:
            raise ValueError(f"nodes must be at least 2, got {self.nodes}")
        max_edges = self.nodes * (self.nodes - 1) // 2
        if not self.nodes - 1 <= self.edges <= max_edges:
            raise ValueError(f"edges must be in [{self.nodes - 1}, {max_edges}], got {self.edges}")
        if self.prefixes < 1:
            raise ValueError(f"prefixes must be at least 1, got {self.prefixes}")
        if self.interests < 0:
            raise ValueError(f"interests must be non-negative, got {self.interests}")
        if not 0 <= self.interest_window_s <= self.horizon_s:
            raise ValueError(f"interest_window_s must be in [0, horizon_s], got {self.interest_window_s}")
        if not 0 <= self.warmup_s < self.cooldown_start_s <= self.horizon_s:
            raise ValueError(
                f"need 0 <= warmup_s < cooldown_start_s <= horizon_s, "
                f"got {self.warmup_s}, {self.cooldown_start_s}, {self.horizon_s}")
        if self.histogram_bin_s <= 0:
            raise ValueError(f"histogram_bin_s must be positive, got {self.histogram_bin_s}")
        return self
