"""Golden trace: final parameters and per-step counts of small fixed runs.

Eight runs of the small test_trainer.py network (trunk 6x5, dim 8, three
classes): the four strategies, each plain and on the jitter_std=4,
template_scale=30 SGD data that makes gradient-remedy rescale.
tests/data/golden/ holds each run's final parameters (a .net file, see
write_net) and the integer columns of its steps.csv. A change to the
training step must keep every parameter array within 1e-12 relative (in the
2-norm) of the file's and every count exact. Regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

only when a change is meant to move them, and say so in CHANGES.md.
"""

import os

import numpy as np
import pytest

from gradremedy import (
    OptimizerKind,
    RemedyConfig,
    Strategy,
    TrainConfig,
    TwoTaskDataset,
    init_network,
    train,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
STRATEGIES = ("naive", "pcgrad", "fixed-theta", "gradient-remedy")
# case -> (TrainConfig overrides, TwoTaskDataset overrides)
CASES = {
    "plain": ({}, {}),
    "rescale": (
        {"epochs": 3, "optimizer": OptimizerKind.SGD, "learning_rate": 5e-3},
        {"jitter_std": 4.0, "template_scale": 30.0},
    ),
}
COUNT_COLUMNS = "epoch,batch,layers_total,conflicting_pre,conflicting_post,wrongly_dominant"
REL_TOL = 1e-12
MAGIC = "gradremedy-net v1"


def run_case(case, strategy):
    """The case's TrainResult and the net it trained."""
    config_kw, data_kw = CASES[case]
    config = TrainConfig(**{
        "remedy": RemedyConfig(strategy=Strategy(strategy)),
        "epochs": 2, "batches_per_epoch": 5, "batch_size": 16, "eval_batches": 1,
        **config_kw,
    })
    data = TwoTaskDataset(seed=1, num_classes=3, dim=8, snr_db=0.0, **data_kw)
    net = init_network(seed=1, in_dim=8, trunk_widths=(6, 5), num_classes=3)
    return train(config, data, net), net


def counts_csv(result) -> str:
    rows = [COUNT_COLUMNS] + [
        f"{s.epoch},{s.batch},{s.layers_total},{s.conflicting_pre},"
        f"{s.conflicting_post},{s.wrongly_dominant}"
        for s in result.step_stats
    ]
    return "\n".join(rows) + "\n"


def write_net(net, path):
    """A magic line, then per chain a '<name> <layer count>' line and per
    layer a 'layer <out_dim> <in_dim> <activation>' line, its row-major
    weights and its bias, each value as %.17g, which round-trips float64.
    The activation is the chain's: relu in the trunk, identity in a head."""
    lines = [MAGIC]
    for name, chain in net.chains():
        lines.append(f"{name} {len(chain)}")
        activation = "relu" if chain is net.trunk else "identity"
        for layer in chain:
            lines.append(f"layer {layer.out_dim} {layer.in_dim} {activation}")
            lines += [" ".join(f"{v:.17g}" for v in array.ravel())
                      for array in (layer.weights, layer.bias)]
    with open(path, "w", encoding="ascii") as out:
        out.write("\n".join(lines) + "\n")


def read_net(path):
    """[(layer name as in named_layers, weights, bias)] of a write_net file."""
    with open(path, encoding="ascii") as src:
        lines = src.read().splitlines()
    assert lines[0] == MAGIC, path
    layers, pos = [], 1
    while pos < len(lines):
        name, count = lines[pos].split()
        pos += 1
        for i in range(int(count)):
            _, out_dim, in_dim, _ = lines[pos].split()
            weights = np.array(lines[pos + 1].split(), dtype=np.float64)
            layers.append((f"{name}[{i}]", weights.reshape(int(out_dim), int(in_dim)),
                           np.array(lines[pos + 2].split(), dtype=np.float64)))
            pos += 3
    return layers


def _stem(case, strategy):
    return os.path.join(DATA, f"{case}.{strategy}")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("case", CASES)
def test_run_matches_golden_trace(case, strategy):
    result, net = run_case(case, strategy)
    with open(_stem(case, strategy) + ".counts.csv", encoding="ascii") as src:
        assert counts_csv(result) == src.read()
    want = read_net(_stem(case, strategy) + ".net")
    got = net.named_layers()
    assert [name for name, _ in got] == [name for name, _, _ in want]
    for (name, layer), (_, weights, bias) in zip(got, want):
        for attr, r in (("weights", weights), ("bias", bias)):
            g = getattr(layer, attr)
            assert g.shape == r.shape, f"{name}.{attr}"
            assert np.linalg.norm(g - r) <= REL_TOL * np.linalg.norm(r), f"{name}.{attr}"


def test_rescale_case_fires_the_rescale():
    assert run_case("rescale", "gradient-remedy")[0].rescale_events > 0


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for case in CASES:
        for strategy in STRATEGIES:
            result, net = run_case(case, strategy)
            write_net(net, _stem(case, strategy) + ".net")
            with open(_stem(case, strategy) + ".counts.csv", "w", encoding="ascii") as out:
                out.write(counts_csv(result))
    print(f"wrote {len(CASES) * len(STRATEGIES)} cases to {DATA}")
