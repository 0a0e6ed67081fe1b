"""Statistical toolkit for AI reliability data.

Subpackages and modules:

- ``datasets``: schema validation, ingestion, exposure derivation, summaries
- ``recurrent``: exposure-adjusted recurrent-event models (vehicle and fleet)
- ``propagation``: multi-module error-triggering point process
- ``srgm``: covariate reliability-growth and resilience models
- ``regression``: least-squares and mixture-experiment fits
- ``design``: maximin Latin hypercube search and life-test transforms
- ``simulate``: seeded generators and fixture factories
- ``cli``: the ``air`` command-line entry point
"""

__version__ = "0.1.0"

from . import datasets, design, propagation, recurrent, regression, simulate, srgm

__all__ = [
    "__version__",
    "datasets",
    "design",
    "propagation",
    "recurrent",
    "regression",
    "simulate",
    "srgm",
]
