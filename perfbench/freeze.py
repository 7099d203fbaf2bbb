"""Train the frozen models the explain and fidelity workloads load.

    python3 perfbench/freeze.py

Trains each model in `common.FROZEN` once with `common.RECIPE`, saves it with
`save_model` under perfbench/models/<name>/ and records its digest in
perfbench/models/digests.json. The benchmark verifies that digest at set-up,
so a change to the network kernels cannot change which model the explain
and fidelity workloads run; only the `train` workload trains.
"""

from __future__ import annotations

import json
import os
import sys

import common


def main() -> int:
    common.pin_blas()
    common.import_cfedit()
    from cfedit import data, network

    digests = {}
    for name, size in sorted(common.FROZEN.items()):
        r = common.RECIPE
        ds = data.gen_shapes(r["shapes_count"], size=size, seed=r["seed"], split="train")
        model = network.train(
            network.reference_extractor_specs(),
            network.reference_head_specs(ds.class_count),
            ds.images,
            ds.labels,
            network.TrainConfig(learning_rate=r["learning_rate"], epochs=r["epochs"], seed=r["seed"]),
            class_count=ds.class_count,
        )
        path = common.model_path(name)
        network.save_model(model, path)
        digests[name] = common.model_digest(path)
        print(f"{name}: input {size}x{size}, grid {model.feature_shape}, {model.metrics}, {digests[name]}")
    with open(os.path.join(common.MODELS_DIR, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
