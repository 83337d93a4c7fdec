"""The augmentation-strategy generalization experiment.

For each (mode, n_fake, seed): draw realistic configurations, hold out a
test slice, augment the remainder's mean load with the mode's factor
structure, train the penalty network on the augmented data only, and
measure mean constraint violations on the held-out realistic samples.

Neither the realistic draw, its split nor the network's initial weights
depend on the mode or n_fake, so the cells of one seed share them:
``experiment_sweep`` prepares them once per seed (and the decision space
once per sweep), and each cell trains its own copy of the initial network
with its own input standardization. A sweep row is therefore ``==`` to
``run_cell`` on its cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import SampleSet, gen_augmented, gen_realistic
from .mlp import MlpModel, build_mlp, input_standardization
from .space import DecisionSpace
from .train import TrainConfig, evaluate_decisions, train_penalty
from ..grid.model import GridCase
from ..loadsynth import SCALING_MODES
from ..rng import derive_seed

DEFAULT_SEEDS = tuple(range(0, 100, 10))
TEST_FRACTION = 0.25  # trailing share of the realistic draw held out for testing
HIDDEN_LAYERS = 2
# The sweep's realistic loads carry per-load i.i.d. noise on top of each
# group's shared series, so test loads are not exactly rank-consistent.
_REALISTIC_NOISE_SIGMA = 0.02


@dataclass(frozen=True)
class ExperimentConfig:
    case: GridCase
    n_real: int = 200
    n_fake: tuple[int, ...] = (200, 1000)
    modes: tuple[str, ...] = SCALING_MODES
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    width: int = 200
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.n_real * TEST_FRACTION < 1:
            raise ValueError("n_real too small for the test split")


@dataclass(frozen=True)
class SweepRow:
    mode: str
    n_fake: int
    seed: int
    equality_mean: float
    inequality_mean: float
    overall_mean: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    failures: tuple[str, ...]

    def mean_overall_by_mode(self) -> dict[str, float]:
        out: dict[str, list[float]] = {}
        for row in self.rows:
            out.setdefault(row.mode, []).append(row.overall_mean)
        return {m: float(np.mean(v)) for m, v in out.items()}

    def gap_positive_count(self, worse: str = "naive", better: str = "brute_force"
                           ) -> tuple[int, int]:
        """(number of seeds with worse > better, number of seeds compared)."""
        per_seed: dict[int, dict[str, list[float]]] = {}
        for row in self.rows:
            per_seed.setdefault(row.seed, {}).setdefault(row.mode, []).append(
                row.overall_mean)
        wins = total = 0
        for seed, modes in sorted(per_seed.items()):
            if worse in modes and better in modes:
                total += 1
                if np.mean(modes[worse]) > np.mean(modes[better]):
                    wins += 1
        return wins, total


def split_realistic(samples: SampleSet) -> tuple[SampleSet, SampleSet]:
    """Deterministic split: the trailing ``TEST_FRACTION`` becomes the test set."""
    n = len(samples)
    n_test = max(1, int(round(n * TEST_FRACTION)))
    train = samples.subset(slice(0, n - n_test))
    test = samples.subset(slice(n - n_test, n))
    return train, test


@dataclass(frozen=True)
class _SeedInputs:
    """What the cells of one seed share."""
    base_pd: np.ndarray  # mean training-pool load, augmented by every mode
    base_qd: np.ndarray
    test: SampleSet  # held-out realistic samples
    init: MlpModel  # initial network; each cell trains a copy


def _seed_inputs(config: ExperimentConfig, space: DecisionSpace, seed: int
                 ) -> _SeedInputs:
    realistic = gen_realistic(config.case, config.n_real, seed,
                              noise_sigma=_REALISTIC_NOISE_SIGMA)
    train_pool, test_set = split_realistic(realistic)
    init = build_mlp(space, hidden_layers=HIDDEN_LAYERS,
                     width=config.width, seed=derive_seed(seed, 23))
    return _SeedInputs(base_pd=train_pool.pd.mean(axis=0),
                       base_qd=train_pool.qd.mean(axis=0), test=test_set, init=init)


def _train_cell(config: ExperimentConfig, shared: _SeedInputs, mode: str,
                n_fake: int, seed: int) -> SweepRow:
    fake = gen_augmented(config.case, shared.base_pd, shared.base_qd, mode, n_fake,
                         derive_seed(seed, 17))
    model = shared.init.copy()  # training updates the weights in place
    model.input_mean, model.input_std = input_standardization(
        np.concatenate([fake.pd, fake.qd], axis=1))
    train_cfg = replace(config.train, seed=derive_seed(seed, 29))
    model, _ = train_penalty(model, fake.pd, fake.qd, train_cfg)
    report = evaluate_decisions(model, shared.test.pd, shared.test.qd)
    return SweepRow(mode=mode, n_fake=n_fake, seed=seed,
                    equality_mean=report.equality_mean,
                    inequality_mean=report.inequality_mean,
                    overall_mean=report.overall_mean)


def run_cell(config: ExperimentConfig, mode: str, n_fake: int, seed: int
             ) -> SweepRow:
    """One (mode, n_fake, seed) cell: generate, train, evaluate.

    Prepares the seed's shared inputs for this cell alone; the row is ``==``
    to the one ``experiment_sweep`` gives for the cell.
    """
    shared = _seed_inputs(config, DecisionSpace(config.case), seed)
    return _train_cell(config, shared, mode, n_fake, seed)


def experiment_sweep(config: ExperimentConfig) -> SweepResult:
    """Full grid over (mode, n_fake, seed); failures recorded, not fatal.

    Seeds run outermost so that only the current seed's shared inputs are
    alive. They are prepared inside the first cell's ``try``, so a failure
    there is recorded for each of the seed's cells with the message
    ``run_cell`` would raise. Rows and failures come out in (mode, n_fake,
    seed) order.
    """
    cells: dict[tuple[str, int, int], SweepRow | str] = {}
    space = None
    for seed in config.seeds:
        shared = None
        for mode in config.modes:
            for n_fake in config.n_fake:
                try:
                    if space is None:
                        space = DecisionSpace(config.case)
                    if shared is None:
                        shared = _seed_inputs(config, space, seed)
                    cells[mode, n_fake, seed] = _train_cell(config, shared, mode,
                                                            n_fake, seed)
                except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                    cells[mode, n_fake, seed] = f"{mode}/n_fake={n_fake}/seed={seed}: {exc}"
    ordered = [cells[key] for key in itertools.product(config.modes, config.n_fake,
                                                        config.seeds)]
    return SweepResult(rows=tuple(c for c in ordered if isinstance(c, SweepRow)),
                       failures=tuple(c for c in ordered if isinstance(c, str)))
