"""Golden outputs: the bytes of every output file of three small runs, pinned.

Each digest is the SHA-256 of a file written by ``run_single`` (single and
multi mode) or ``run_batch`` (2 seeds) on mesh-sized inputs with a buffer of
2 packets, so the runs drop packets, answer interests and rebuild tables many
times. A change that claims to keep every output byte-identical, a speed-up
or a refactor, must leave these digests as they are. Only a change that states
it changes the model, and why, may update them.
"""

import hashlib

import pytest

from icnsim import cli
from icnsim.config import SimulationConfig

MESH = dict(seed=3, nodes=8, edges=14, prefixes=5, interests=400, horizon_s=60.0,
            interest_window_s=45.0, warmup_s=5.0, cooldown_start_s=55.0, buffer_packets=2)

SINGLE_RUN_DIGESTS = {
    "single": {
        "loads.csv": "726f42a8720edbfa833019085fc8482bd5305f21bcad108826457d11a942961f",
        "packets.csv": "f4c58bc6474dcd071df6f3750d5247a2084a16538f3278d8c44efa1dc8619dcb",
        "summary.csv": "815ce0cfe70e4e72ca518fdd64b8261bc7ad53b092787654108927b62e846fa2",
        "histogram.csv": "690f5ec23faa8fec997374110299553b4cdfb6ee8b7984a077889b57fa8376e3",
    },
    "multi": {
        "loads.csv": "ab5494bab2108dacf1b0889540bbe88c369f258ea6beea734a985e833c66c2fa",
        "packets.csv": "11fbc61efc2e1049ee712f2131089642d30a993c60f56aac71da3e7b5522b3de",
        "summary.csv": "68bb597e74791bf4d71a196f09c8e61899a0d8db6437f22b1d71fce003cebd52",
        "histogram.csv": "4e3d05dc31dd2151d2c0b25b52dfd5e38672ee7b1e572160a17957afffa3e14b",
    },
}

BATCH_DIGEST = "1b0eb862dda0ab7e5ec31fd8c500c5e01d400c794a35ad89247b640bcdec19ce"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(SINGLE_RUN_DIGESTS))
def test_run_single_outputs_are_pinned(tmp_path, mode):
    summary, _ = cli.run_single(SimulationConfig(mode=mode, out_dir=str(tmp_path), **MESH))
    assert summary.dropped_count > 0
    digests = {name: sha256(tmp_path / name) for name in SINGLE_RUN_DIGESTS[mode]}
    assert digests == SINGLE_RUN_DIGESTS[mode]


def test_run_batch_output_is_pinned(tmp_path):
    _, path = cli.run_batch(SimulationConfig(out_dir=str(tmp_path), **MESH), 2)
    assert sha256(path) == BATCH_DIGEST
