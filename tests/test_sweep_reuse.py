"""A sweep decomposes each region and solves each IPET witness once per cache.

HTG extraction reads each region's task decomposition as a per-region fact
in the cache's region memo (keyed by granularity and chunk count), and the
certify stage reads the entry function's IPET witness from the cache's
witness memo (keyed by function name and cost signature, tagged with the
function fingerprint).  So an in-process sweep over one cache decomposes
each distinct (region, granularity, chunk count) once and solves each
distinct (function fingerprint, cost signature) once.  Every point must
still equal a run of it in a fresh cache: the HTG (tasks, their access sets
and statements, edges in order), the bound, mapping, order, certificate
verdicts and the parallel C text.
"""

import gc
import itertools
import weakref

import pytest

import repro.wcet.cache as cache_module
from repro.adl.platforms import (
    generic_predictable_multicore,
    kit_leon3_inoc,
    recore_xentium_like,
)
from repro.analysis.certify import CertificationError, build_certificates
from repro.core import Pipeline, ToolchainConfig
from repro.core.sweep import sweep
from repro.frontend import compile_diagram
from repro.htg import TaskKind, extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.ir.facts import RegionFacts
from repro.ir.printer import to_c
from repro.parallel.codegen import parallel_program_to_c
from repro.usecases import ALL_USECASES, build_egpws_diagram, build_polka_diagram
from repro.wcet import HardwareCostModel, WcetAnalysisCache
from repro.wcet.ipet import ipet_wcet

USECASES = ("egpws", "polka", "weaa")
PLATFORMS = (
    lambda: generic_predictable_multicore(cores=2),
    recore_xentium_like,
    kit_leon3_inoc,
)
EXTRACTION = (("block", 1), ("loop", 3))
SCHEDULERS = ("wcet_list", "acet_list")


@pytest.fixture()
def ipet_solves(monkeypatch):
    """The functions the cache's witness memo solves an IPET witness for."""
    solved = []

    def counting(function, model, flow_facts=None):
        solved.append(function)
        return ipet_wcet(function, model, flow_facts)

    monkeypatch.setattr(cache_module, "ipet_wcet", counting)
    return solved


def _htg_view(htg):
    return (
        [
            (t.task_id, t.kind, t.origin, t.parent, sorted(t.reads), sorted(t.writes),
             to_c(t.statements))
            for t in htg.tasks.values()
        ],
        [(e.src, e.dst, e.payload_bytes, e.variables) for e in htg.edges],
    )


def _observed(result):
    """What a design point yields, as comparable values."""
    schedule = result.schedule
    chain = result.certificates
    return {
        "htg": _htg_view(result.htg),
        "bound": schedule.wcet_bound,
        "sequential bound": result.sequential_bound,
        "mapping": schedule.mapping,
        "order": schedule.order,
        "certified": (chain.ok, [(r.analysis, sorted(f.code for f in r.findings))
                                 for r in chain.reports]),
        "ipet certificate": chain.ipet,
        "C": parallel_program_to_c(result.parallel_program, result.htg),
    }


def test_sweep_reuses_decompositions_and_witnesses_and_equals_fresh_runs(ipet_solves):
    cache = WcetAnalysisCache()
    configs = [
        ToolchainConfig(granularity=kind, loop_chunks=chunks, scheduler=scheduler, certify=True)
        for (kind, chunks), scheduler in itertools.product(EXTRACTION, SCHEDULERS)
    ]
    builders = [ALL_USECASES[name][0] for name in USECASES]
    outcome = sweep(
        diagrams=builders,
        platforms=list(PLATFORMS),
        configs=configs,
        max_workers=1,
        cache=cache,
        keep_results=True,
    )
    assert outcome.ok, [o.error for o in outcome.failures()]
    assert len(outcome) == len(USECASES) * len(PLATFORMS) * len(configs)

    # the results stay alive, so region ids name distinct regions
    triples = {
        (id(region), o.result.config.granularity, o.result.config.loop_chunks)
        for o in outcome
        for _, region in o.result.model.block_regions
    }
    decomposed = sum(o.result.stage("htg").info["regions_recomputed"] for o in outcome)
    assert decomposed == len(triples)
    reused = sum(o.result.stage("htg").info["regions_reused"] for o in outcome)
    assert reused > decomposed

    keys = WcetAnalysisCache()
    witnesses = set()
    for o in outcome:
        platform = o.result.artifacts["platform"]
        model = HardwareCostModel(platform, platform.cores[0].core_id)
        witnesses.add(
            (keys.function_fingerprint(o.result.model.entry), keys.model_signature_digest(model))
        )
    assert len(ipet_solves) == len(witnesses) < len(outcome)

    cases = itertools.product(builders, PLATFORMS, configs)
    for point, (build, platform, config) in zip(outcome, cases):
        fresh = Pipeline(platform(), config, WcetAnalysisCache()).run(build())
        assert fresh.stage("htg").info["regions_reused"] == 0
        assert _observed(point.result) == _observed(fresh), point.label

    # clear() empties the witness memo: the next certified run solves again
    solved = len(ipet_solves)
    cache.clear()
    Pipeline(PLATFORMS[0](), configs[0], cache).run(builders[0]())
    assert len(ipet_solves) == solved + 1


def test_each_granularity_and_chunk_count_keys_its_own_decomposition():
    cache = WcetAnalysisCache()
    platform = generic_predictable_multicore(cores=4)
    decomposed = []
    for kind, chunks in (("loop", 2), ("loop", 3), ("loop", 2), ("block", 2)):
        config = ToolchainConfig(granularity=kind, loop_chunks=chunks)
        result = Pipeline(platform, config, cache).run(build_polka_diagram())
        fresh = Pipeline(platform, config, WcetAnalysisCache()).run(build_polka_diagram())
        assert _htg_view(result.htg) == _htg_view(fresh.htg)
        assert result.schedule.wcet_bound == fresh.schedule.wcet_bound
        decomposed.append(result.stage("htg").info["regions_recomputed"])
    regions = len(result.model.block_regions)
    assert decomposed == [regions, regions, 0, regions]


def test_decompositions_never_keep_their_regions_alive():
    cache = WcetAnalysisCache()
    facts = RegionFacts(cache.region_facts)
    model = compile_diagram(build_polka_diagram())
    block = extract_htg(model, ExtractionOptions("block"), facts)
    loop = extract_htg(model, ExtractionOptions("loop", 3), facts)
    chunks = [t.statements for t in loop.tasks.values() if t.kind is TaskKind.LOOP_CHUNK]
    assert chunks
    # a second extraction builds fresh tasks on the memoized blocks
    again = extract_htg(model, ExtractionOptions("loop", 3), RegionFacts(cache.region_facts))
    assert all(
        again.tasks[tid] is not task and again.tasks[tid].statements is task.statements
        for tid, task in loop.tasks.items()
    )
    regions = [weakref.ref(region) for _, region in model.block_regions]
    blocks = [weakref.ref(stmts) for stmts in chunks]
    assert all(ref() is not None for ref in regions + blocks)
    del model, block, loop, again, chunks
    gc.collect()
    assert all(ref() is None for ref in regions + blocks)


def test_mutating_a_certificate_leaves_the_memoized_witness_intact(ipet_solves):
    cache = WcetAnalysisCache()
    platform = generic_predictable_multicore(cores=2)
    first = Pipeline(platform, ToolchainConfig(certify=True), cache).run(build_polka_diagram())
    cert = first.certificates.ipet
    for counts in (cert.edge_counts, cert.block_costs, cert.loop_bounds):
        for key in counts:
            counts[key] += 1
    for name in ("flow", "loop"):
        for key in cert.duals[name]:
            cert.duals[name][key] += 1.0
    cert.duals["entry"] += 1.0
    config = ToolchainConfig(certify=True, scheduler="acet_list")
    second = Pipeline(platform, config, cache).run(build_polka_diagram())
    assert len(ipet_solves) == 1  # the second point read the memo
    fresh = Pipeline(platform, config, WcetAnalysisCache()).run(build_polka_diagram())
    assert second.certificates.ok
    assert second.certificates.ipet == fresh.certificates.ipet != cert


def test_a_forged_witness_is_refuted():
    cache = WcetAnalysisCache()
    platform = generic_predictable_multicore(cores=2)
    config = ToolchainConfig(certify=True)
    honest = Pipeline(platform, config, cache).run(build_polka_diagram())
    function = honest.model.entry
    model = HardwareCostModel(platform, platform.cores[0].core_id)
    other = compile_diagram(build_egpws_diagram()).entry
    key = (function.name, cache.model_signature_digest(model))
    assert key in cache._ipet_witnesses
    # another function's witness under this function's key and fingerprint
    cache._ipet_witnesses[key] = (cache.function_fingerprint(function), ipet_wcet(other, model))
    chain = build_certificates(
        honest.schedule, function, honest.htg, platform,
        sequential_bound=honest.sequential_bound, cache=cache,
    )
    assert not chain.ok
    assert "certify.ipet.edge-set-mismatch" in {f.code for f in chain.reports[-1].findings}
    with pytest.raises(CertificationError) as refuted:
        Pipeline(platform, config, cache).run(build_polka_diagram())
    assert "certify.ipet.edge-set-mismatch" in {f.code for f in refuted.value.report.findings}


def test_pipeline_results_carry_no_task_wcet():
    cache = WcetAnalysisCache()
    pipe = Pipeline(generic_predictable_multicore(cores=4), ToolchainConfig("loop", 3), cache)
    base = pipe.run(build_polka_diagram())
    again = pipe.run_incremental(base, build_polka_diagram())
    for result in (base, again):
        assert result.htg.tasks
        assert all(task.wcet == 0.0 for task in result.htg.tasks.values())
        assert all(w > 0 for w in result.schedule.result.task_base_wcet.values())
