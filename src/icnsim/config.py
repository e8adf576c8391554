"""Run configuration."""

from __future__ import annotations

from dataclasses import dataclass

from .protocol import MODE_MULTI, MODE_SINGLE


@dataclass
class SimulationConfig:
    """Knobs for one simulation run; defaults are the 10-node desk scenario.

    ``k`` left unset resolves to 3 in multi mode and 1 in single mode.
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

    def validate(self) -> "SimulationConfig":
        if self.nodes < 2:
            raise ValueError(f"nodes must be at least 2, got {self.nodes}")
        max_edges = self.nodes * (self.nodes - 1) // 2
        if not self.nodes - 1 <= self.edges <= max_edges:
            raise ValueError(f"edges must be in [{self.nodes - 1}, {max_edges}], got {self.edges}")
        if self.prefixes < 1:
            raise ValueError(f"prefixes must be at least 1, got {self.prefixes}")
        if self.interests < 0:
            raise ValueError(f"interests must be non-negative, got {self.interests}")
        if self.mode not in (MODE_SINGLE, MODE_MULTI):
            raise ValueError(f"mode must be single or multi, got {self.mode!r}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {self.horizon_s}")
        if not 0 <= self.interest_window_s <= self.horizon_s:
            raise ValueError(f"interest_window_s must be in [0, horizon_s], got {self.interest_window_s}")
        if self.path_updates_per_s <= 0:
            raise ValueError(f"path_updates_per_s must be positive, got {self.path_updates_per_s}")
        if self.load_window_s <= 0:
            raise ValueError(f"load_window_s must be positive, got {self.load_window_s}")
        if self.buffer_packets < 1:
            raise ValueError(f"buffer_packets must be at least 1, got {self.buffer_packets}")
        if self.propagation_delay_s < 0:
            raise ValueError(f"propagation_delay_s must be non-negative, got {self.propagation_delay_s}")
        if not 0 <= self.warmup_s < self.cooldown_start_s <= self.horizon_s:
            raise ValueError(
                f"need 0 <= warmup_s < cooldown_start_s <= horizon_s, "
                f"got {self.warmup_s}, {self.cooldown_start_s}, {self.horizon_s}")
        if self.epsilon_mbps <= 0:
            raise ValueError(f"epsilon_mbps must be positive, got {self.epsilon_mbps}")
        if self.histogram_bin_s <= 0:
            raise ValueError(f"histogram_bin_s must be positive, got {self.histogram_bin_s}")
        return self
