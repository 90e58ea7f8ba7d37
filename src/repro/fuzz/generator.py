"""Seeded, deterministic candidate generation.

The generator turns a ``(seed, budget)`` pair into a reproducible stream of
:class:`~repro.fuzz.adversaries.AdversarySpec` candidates: same seed, same
budget → the *identical* candidate list, byte for byte once encoded.  It
rides :class:`~repro.sim.random_streams.RandomStreams`, one named stream
per adversary kind, so the draw sequence of one kind never perturbs the
others (adding a new adversary kind leaves every existing kind's candidate
stream untouched — the same stability argument the simulator's streams
make).

The shape of the search is seeds-then-mutations: candidates round-robin
over the enabled kinds, and each kind draws its parameters from hostile
ranges (small hot sets, large post-jump transaction sizes, near-zero think
times).  Duplicates — by content fingerprint — are skipped, so a campaign
never spends budget running the same cell twice.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.fuzz.adversaries import (
    ADAPTIVE_CONTROLLERS,
    AdversarySpec,
    ArrivalBurstAdversary,
    ClassMixFlipAdversary,
    DisplacementSpikeAdversary,
    HotKeyAdversary,
    SizeSpikeAdversary,
    adversary_kinds,
)
from repro.sim.random_streams import RandomStreams

#: victim criteria the displacement adversary draws from
_CRITERIA = ("youngest", "oldest", "least_work", "queries_first")


def _int(rng: np.random.Generator, low: int, high: int) -> int:
    """A python int uniform on the closed range [low, high]."""
    return int(rng.integers(low, high + 1))


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """A python float uniform on [low, high)."""
    return float(rng.uniform(low, high))


def _controller(rng: np.random.Generator) -> str:
    """One of the adaptive controllers, uniformly."""
    return ADAPTIVE_CONTROLLERS[_int(rng, 0, len(ADAPTIVE_CONTROLLERS) - 1)]


def _draw_size_spike(rng: np.random.Generator) -> AdversarySpec:
    return SizeSpikeAdversary(
        controller=_controller(rng),
        seed=_int(rng, 1, 8),
        n_terminals=_int(rng, 200, 400),
        before_k=_int(rng, 4, 8),
        after_k=_int(rng, 24, 64),
        jump_fraction=round(_uniform(rng, 0.2, 0.4), 3),
    )


def _draw_hot_key(rng: np.random.Generator) -> AdversarySpec:
    hot_set = _int(rng, 30, 150)
    return HotKeyAdversary(
        controller=_controller(rng),
        seed=_int(rng, 1, 8),
        n_terminals=_int(rng, 250, 500),
        hot_set_size=hot_set,
        accesses=min(_int(rng, 18, 28), hot_set),
        write_fraction=round(_uniform(rng, 0.8, 1.0), 3),
    )


def _draw_arrival_burst(rng: np.random.Generator) -> AdversarySpec:
    return ArrivalBurstAdversary(
        controller=_controller(rng),
        seed=_int(rng, 1, 8),
        n_terminals=_int(rng, 300, 600),
        think_time=round(_uniform(rng, 0.01, 0.2), 4),
        accesses=_int(rng, 8, 16),
    )


def _draw_class_mix_flip(rng: np.random.Generator) -> AdversarySpec:
    return ClassMixFlipAdversary(
        controller=_controller(rng),
        seed=_int(rng, 1, 8),
        n_terminals=_int(rng, 200, 400),
        query_weight=round(_uniform(rng, 0.1, 0.6), 3),
        query_k=_int(rng, 20, 60),
        oltp_k=_int(rng, 4, 12),
        oltp_write_fraction=round(_uniform(rng, 0.5, 1.0), 3),
    )


def _draw_displacement_spike(rng: np.random.Generator) -> AdversarySpec:
    return DisplacementSpikeAdversary(
        controller=_controller(rng),
        seed=_int(rng, 1, 8),
        n_terminals=_int(rng, 200, 400),
        before_k=_int(rng, 4, 8),
        after_k=_int(rng, 24, 48),
        jump_fraction=round(_uniform(rng, 0.2, 0.4), 3),
        criterion=_CRITERIA[_int(rng, 0, len(_CRITERIA) - 1)],
    )


_DRAWERS: Dict[str, Callable[[np.random.Generator], AdversarySpec]] = {
    "size_spike": _draw_size_spike,
    "hot_key": _draw_hot_key,
    "arrival_burst": _draw_arrival_burst,
    "class_mix_flip": _draw_class_mix_flip,
    "displacement_spike": _draw_displacement_spike,
}


def generate_candidates(seed: int, budget: int,
                        kinds: Optional[Sequence[str]] = None,
                        ) -> List[AdversarySpec]:
    """The deterministic candidate stream of one campaign.

    Returns up to ``budget`` distinct adversary specs (distinct by content
    fingerprint), drawn round-robin over ``kinds`` (default: every
    adversary kind, sorted).  The stream is a pure function of ``(seed,
    budget, kinds)``.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if kinds is None:
        kinds = adversary_kinds()
    unknown = sorted(set(kinds) - set(_DRAWERS))
    if unknown:
        raise ValueError(
            f"unknown adversary kinds {unknown}; available: {sorted(_DRAWERS)}"
        )
    if not kinds:
        raise ValueError("at least one adversary kind is required")
    streams = RandomStreams(seed)
    candidates: List[AdversarySpec] = []
    seen = set()
    attempts = 0
    max_attempts = budget * 10
    index = 0
    while len(candidates) < budget and attempts < max_attempts:
        kind = kinds[index % len(kinds)]
        index += 1
        attempts += 1
        candidate = _DRAWERS[kind](streams.stream(f"fuzz-{kind}"))
        fingerprint = candidate.fingerprint()
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        candidates.append(candidate)
    return candidates
