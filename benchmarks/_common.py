"""Shared fixtures and helpers for the experiment benchmarks.

Every ``bench_eN_*.py`` module regenerates one experiment of EXPERIMENTS.md.
The paper itself publishes no numeric tables (it is a project overview paper
with a single workflow figure), so each experiment corresponds to a claim in
the text; the printed tables are the reproduction's quantitative record.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.adl.platforms import generic_predictable_multicore  # noqa: E402
from repro.core import Pipeline, ToolchainConfig  # noqa: E402
from repro.usecases import ALL_USECASES  # noqa: E402


def run_flow(usecase: str, cores: int = 4, **config_kwargs):
    """Run the full ARGO flow on one use case and return the result."""
    builder, _ = ALL_USECASES[usecase]
    platform = generic_predictable_multicore(cores=cores)
    config = ToolchainConfig(**{"loop_chunks": min(4, cores), **config_kwargs})
    pipeline = Pipeline(platform, config)
    return pipeline, pipeline.run(builder())


def emit(table) -> None:
    """Print an experiment table underneath the pytest-benchmark output."""
    print()
    print(table.render())



