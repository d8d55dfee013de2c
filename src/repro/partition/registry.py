"""Name -> partitioner registry.

The experiment harness and the CLI refer to schemes by these names; the
five canonical ones are the schemes evaluated in the paper's Section IV.
"""

from __future__ import annotations

from typing import Callable

from repro.partition.ablation import CATPAVariant
from repro.partition.base import Partitioner
from repro.partition.catpa import CATPA
from repro.partition.classical import (
    BestFitDecreasing,
    FirstFitDecreasing,
    WorstFitDecreasing,
)
from repro.partition.hybrid import HybridPartitioner
from repro.types import PartitionError

__all__ = ["PAPER_SCHEMES", "available_schemes", "get_partitioner", "register"]

#: The five schemes compared in the paper's evaluation, in plot order.
PAPER_SCHEMES: tuple[str, ...] = ("ca-tpa", "ffd", "bfd", "wfd", "hybrid")

_REGISTRY: dict[str, Callable[..., Partitioner]] = {
    "ca-tpa": CATPA,
    "ffd": FirstFitDecreasing,
    "bfd": BestFitDecreasing,
    "wfd": WorstFitDecreasing,
    "hybrid": HybridPartitioner,
    "ca-tpa-variant": CATPAVariant,
}


def available_schemes() -> list[str]:
    """All registered scheme names, canonical paper schemes first."""
    rest = sorted(set(_REGISTRY) - set(PAPER_SCHEMES))
    return list(PAPER_SCHEMES) + rest


def get_partitioner(name: str, **kwargs) -> Partitioner:
    """Instantiate a partitioner by registry name.

    Keyword arguments are forwarded to the scheme constructor (e.g.
    ``get_partitioner("ca-tpa", alpha=0.3)``).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise PartitionError(
            f"unknown scheme {name!r}; available: {available_schemes()}"
        ) from None
    return factory(**kwargs)


def register(name: str, factory: Callable[..., Partitioner]) -> None:
    """Add a custom scheme to the registry (e.g. from user code)."""
    if name in _REGISTRY:
        raise PartitionError(f"scheme {name!r} already registered")
    _REGISTRY[name] = factory
