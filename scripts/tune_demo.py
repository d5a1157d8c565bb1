"""Walkthrough of both tuning strategies on synthetic cells.

Transfer mode tunes on cells with known anomaly labels and reports, per cell,
the best trial and the fraction of its trials that reached full recall, then
the group config aggregated across the per-cell winners. Proxy mode tunes a
single unlabeled cell against the capacity-fade regression objectives and
prints the compromise config drawn from the Pareto front.

    python3 scripts/tune_demo.py --model knn --trials 30
"""

import argparse
import sys

import numpy as np

from cyclescreen.features import build_feature_matrix
from cyclescreen.ml_detect import ML_MODELS
from cyclescreen.synth import AnomalySpec, generate_cell
from cyclescreen.tune import default_search_space, optimize_proxy, optimize_transfer


def feature_table(records):
    matrix, _ = build_feature_matrix(records, "custom")
    cycles = np.asarray(matrix.cycle_index, dtype=int)
    X = np.column_stack([matrix.column("dv_max"), matrix.column("dq_max")])
    return cycles, X


def labeled_cell(seed: int, anomalies):
    records, truth = generate_cell(
        90, samples_per_cycle=32, seed=seed, anomalies=anomalies
    )
    cycles, X = feature_table(records)
    labels = np.isin(cycles, sorted(truth))
    return X, labels


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="knn", choices=sorted(ML_MODELS))
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    space = default_search_space(args.model, n_features=2)
    print(f"model {args.model}: search space over {sorted(space.params)}")

    cells = {
        "train-a": labeled_cell(3, (AnomalySpec("point", (8, 30), 0.4),)),
        "train-b": labeled_cell(4, (AnomalySpec("point", (15, 60, 71), 0.35),)),
        "train-c": labeled_cell(5, (AnomalySpec("collective", (44,), 0.3),)),
    }
    transfer = optimize_transfer(
        cells, args.model, space, n_trials=args.trials, seed=args.seed
    )
    print("\ntransfer tuning")
    for name, cell in sorted(transfer.per_cell.items()):
        best = cell.best
        print(
            f"  {name}: best trial {best.trial_id}"
            f" recall {best.objectives[0]:.2f} precision {best.objectives[1]:.2f}"
            f" (perfect-recall fraction {cell.perfect_recall_fraction:.2f})"
        )
    print(f"  aggregated config: {transfer.aggregated}")

    records, truth = generate_cell(
        90, samples_per_cycle=32, seed=args.seed + 10,
        anomalies=(AnomalySpec("point", (12, 40, 70), 0.4),),
    )
    cycles, X = feature_table(records)
    proxy = optimize_proxy(
        cycles, X, args.model, space, n_trials=args.trials, seed=args.seed
    )
    print("\nproxy tuning (no labels; planted cycles were "
          f"{sorted(truth)})")
    print(f"  trials: {len(proxy.trials)}, pareto front: {len(proxy.front)}")
    print(f"  compromise config: {proxy.compromise}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
