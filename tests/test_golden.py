"""Golden outputs: the bytes of every output file of six small runs, pinned.

Each digest is the SHA-256 of a file written by ``run_single`` (single and
multi mode, with and without a propagation delay) or ``run_batch`` (2 seeds)
on mesh-sized inputs with a buffer of 2 packets, so the runs drop packets,
answer interests and rebuild tables many times. One more multi-mode run is
wider, 20 nodes and 50 edges: an 8-node mesh seldom has enough loopless
paths for Yen's cut-off or the spur searches' target cut to act. A change
that claims to keep every output byte-identical, a speed-up or a refactor,
must leave these digests as they are. Only a change that states it changes
the model, and why, may update them.
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

# The same runs with a propagation delay, so no arrival is handled in place:
# each is queued, and its seq orders it among the completions that the engine
# pushes onto the heap directly.
DELAYED_RUN_DIGESTS = {
    "single": {
        "loads.csv": "09ea661e4153d585cd9f2e25121a1c2cbdd877be20de0c822f383f77febf6052",
        "packets.csv": "8ccdf39b0bdab775b8cb46bd0037cf75867a027c3843c94f211984b24ddcdfdf",
        "summary.csv": "1061d199ad0f9063b9360c6bca5b071a855ad0c50deadedfd61408640b3df2ea",
        "histogram.csv": "0cd9e3562d1efcea6c2f4ca4e06d8c41a3329ed08ea7af18dcccdba1bb696d26",
    },
    "multi": {
        "loads.csv": "3eec4e5fca4e6cb8416ba0d20f371322d7c8092e4b2c6e32b5a2754537b5873c",
        "packets.csv": "ec6042bc43a8fa66f71e671b6fdc5721b89feb9299c6f9654bcb4000d7731e00",
        "summary.csv": "a8d0448f21a16820ec01e583f08e69d0c916c47dbdc800950f5aab98c0ba1ea5",
        "histogram.csv": "81ac5203cfb3b9578e824c99e7a56c9174eb8ac82bbd8c993aac9884d0ceb72e",
    },
}

WIDE = dict(MESH, nodes=20, edges=50, prefixes=10, interests=2000)

WIDE_RUN_DIGESTS = {
    "loads.csv": "0092d0dbc506f2f00572a047abbc567a50200db8f4d470dfeca3c4507a808946",
    "packets.csv": "07ed2d8ffb0e4b5e83aeffc3aca77f4d113abb699027af0fa9b40f8999712531",
    "summary.csv": "5ba43d165443b274289321894e5b41544ef9fea156292de4f1b032254b135ca4",
    "histogram.csv": "681a51733658dde8f010d97365df784ee61e846402469d4368a245b077c40ebb",
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


@pytest.mark.parametrize("mode", sorted(DELAYED_RUN_DIGESTS))
def test_delayed_run_outputs_are_pinned(tmp_path, mode):
    config = SimulationConfig(mode=mode, out_dir=str(tmp_path), propagation_delay_s=0.01, **MESH)
    summary, _ = cli.run_single(config)
    assert summary.dropped_count > 0
    digests = {name: sha256(tmp_path / name) for name in DELAYED_RUN_DIGESTS[mode]}
    assert digests == DELAYED_RUN_DIGESTS[mode]


def test_wide_multi_run_outputs_are_pinned(tmp_path):
    summary, _ = cli.run_single(SimulationConfig(mode="multi", out_dir=str(tmp_path), **WIDE))
    assert summary.dropped_count > 0
    digests = {name: sha256(tmp_path / name) for name in WIDE_RUN_DIGESTS}
    assert digests == WIDE_RUN_DIGESTS


def test_run_batch_output_is_pinned(tmp_path):
    _, path = cli.run_batch(SimulationConfig(out_dir=str(tmp_path), **MESH), 2)
    assert sha256(path) == BATCH_DIGEST
