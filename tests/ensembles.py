"""Ensemble helpers the tests share: hitting tails and the reference urn."""

from collections import Counter
from typing import Sequence

import numpy as np

from qsdsim.configuration import Configuration
from qsdsim.rates import RateModel
from qsdsim.simulator import mass_paths
from qsdsim.streams import RandomStream


def hitting_tail(model: RateModel, initial, t: float, k_values: Sequence[int],
                 replicas: int, rng: RandomStream,
                 workers: int = 1) -> list[tuple[int, float]]:
    """Empirical P(total mass reaches K by time t) for each K.

    Computed from the running maximum of each replica, so the estimates
    are automatically nonincreasing in K on the shared replica set. Runs
    on :func:`~qsdsim.simulator.mass_paths`.
    """
    maxima = mass_paths(model, initial, t, replicas, rng, workers).maximum
    return [(int(k), float(np.mean(maxima >= k))) for k in k_values]


def urn(model: RateModel, start: Configuration, steps: np.ndarray,
        rng: np.random.Generator) -> Configuration:
    """Traits along a mass path with ±1 ``steps``, one survivor and one step at a time.

    At +1 a uniform individual is the parent, and the child is a kernel
    draw with probability rho, else a clone. At -1 a uniform individual
    dies. Given the mass path these are the exact conditional laws, since
    every individual carries the same rates. Survivors run one after
    another on one generator give what ``simulator._urns`` gives.
    """
    traits = [trait for trait, weight in start.entries for _ in range(weight)]
    picks = rng.random(len(steps)).tolist()
    mutates = (rng.random(len(steps)) < model.rho).tolist()
    for step, pick, mutate in zip(steps.tolist(), picks, mutates):
        i = int(pick * len(traits))
        if step > 0:
            traits.append(model.kernel.sample(traits[i], rng) if mutate else traits[i])
        else:
            traits[i] = traits[-1]
            traits.pop()
    return Configuration(tuple(sorted(Counter(traits).items())))
