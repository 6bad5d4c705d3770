"""Property smoke: randomized workloads always produce accepted chains.

Seeded parametrization (not hypothesis -- CI does not install it) over the
synthetic workload generators: whatever diagram or HTG shape comes out,
the full flow must yield a certificate chain every independent checker
accepts.  This is the "producer and checker agree on arbitrary inputs"
property; any divergence is a bug in one of them.
"""

import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.certify import build_certificates, certify_pipeline_result
from repro.core.config import ToolchainConfig
from repro.core.pipeline import run_pipeline
from repro.htg.extraction import ExtractionOptions, extract_htg
from repro.scheduling.schedule import default_core_order, evaluate_mapping
from repro.usecases.workloads import random_pipeline_diagram, synthetic_compiled_model
from repro.wcet.cache import WcetAnalysisCache
from repro.wcet.hardware_model import HardwareCostModel
from repro.wcet.system_level import SystemDesign


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("cores", [2, 4])
def test_random_diagram_chain_accepted(seed, cores):
    diagram = random_pipeline_diagram(
        stages=2 + seed % 3, width=1 + seed % 2, vector_size=16, seed=seed
    )
    platform = generic_predictable_multicore(cores=cores)
    result = run_pipeline(
        diagram,
        platform,
        ToolchainConfig(granularity="loop", loop_chunks=2, certify=True),
    )
    chain = result.certificates
    assert chain.ok, [str(f) for f in chain.findings()]
    # the witness is complete: the IPET certificate proved optimality too
    assert chain.ipet.duals is not None
    assert chain.reports[-1].checked.get("duals_checked", 0) > 0


@pytest.mark.parametrize("seed", [10, 11, 12, 13])
def test_random_htg_chain_accepted(seed):
    """Bypass the model layer: random IR + hand mapping, straight to the
    certificate chain (exercises shapes the diagram generator cannot)."""
    model = synthetic_compiled_model(
        num_kernels=3 + seed % 4, vector_size=24, seed=seed
    )
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=2))
    cores = 2 + seed % 3
    platform = generic_predictable_multicore(cores=cores)
    WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
    mapping = {
        t.task_id: i % cores
        for i, t in enumerate(htg.topological_tasks())
        if not t.is_synthetic
    }
    schedule = evaluate_mapping(
        SystemDesign(htg, model.entry, platform), mapping, default_core_order(htg, mapping)
    )
    chain = build_certificates(schedule, model.entry, htg, platform)
    assert chain.ok, [str(f) for f in chain.findings()]


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_certify_survives_the_block_granularity(seed):
    """Block granularity produces many more, smaller tasks."""
    diagram = random_pipeline_diagram(stages=2, width=2, vector_size=8, seed=seed)
    platform = generic_predictable_multicore(cores=3)
    result = run_pipeline(
        diagram, platform, ToolchainConfig(granularity="block")
    )
    chain = certify_pipeline_result(result, derive_facts=True)
    assert chain.ok, [str(f) for f in chain.findings()]
