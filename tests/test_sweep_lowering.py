"""A sweep lowers each block once per cache, and the reuse changes nothing.

The front end reads and updates its cache's lowering memo
(:attr:`~repro.wcet.cache.WcetAnalysisCache.lowerings`), so an in-process
sweep over one cache lowers each distinct block of its diagrams once in
total, however many platforms, granularities and schedulers it crosses
them with; every later design point reuses the region objects (and their
memoized facts, fingerprints and pass rewrites).  Every point must still
equal a run of the same point in a fresh cache: front-end and transformed
C text, declarations, bound, mapping, order, task intervals and the
certificate verdict.  ``clear()`` empties the memo, so the next compile
lowers every block again.
"""

import itertools
from functools import partial

from repro.adl.platforms import generic_predictable_multicore, recore_xentium_like
from repro.core import Pipeline, ToolchainConfig
from repro.core.sweep import sweep
from repro.ir.printer import function_to_c
from repro.usecases import ALL_USECASES
from repro.wcet import WcetAnalysisCache

USECASES = ("egpws", "polka", "weaa")
PLATFORMS = {
    "generic2": partial(generic_predictable_multicore, cores=2),
    "xentium": recore_xentium_like,
}
EXTRACTION = (("block", 1), ("loop", 3))
SCHEDULERS = ("wcet_list", "simulated_annealing")


def _observed(result):
    """What a design point yields, as comparable values."""
    schedule = result.schedule
    chain = result.certificates
    return {
        "front-end C": function_to_c(result.artifacts["model"].entry),
        "transformed C": function_to_c(result.model.entry),
        "declarations": [
            (d.name, str(d.type), d.storage, d.initial)
            for d in (*result.model.entry.params, *result.model.entry.decls)
        ],
        "bound": schedule.wcet_bound,
        "sequential bound": result.sequential_bound,
        "mapping": schedule.mapping,
        "order": schedule.order,
        "intervals": schedule.result.task_intervals,
        "certified": (chain.ok, sorted(f.code for f in chain.findings())),
    }


def test_sweep_lowers_each_block_once_and_equals_fresh_runs():
    cache = WcetAnalysisCache()
    configs = [
        ToolchainConfig(granularity=kind, loop_chunks=chunks, scheduler=scheduler, certify=True)
        for (kind, chunks), scheduler in itertools.product(EXTRACTION, SCHEDULERS)
    ]
    builders = [ALL_USECASES[name][0] for name in USECASES]
    outcome = sweep(
        diagrams=builders,
        platforms=list(PLATFORMS.values()),
        configs=configs,
        max_workers=1,
        cache=cache,
        keep_results=True,
    )
    assert outcome.ok, [o.error for o in outcome.failures()]
    assert len(outcome) == len(USECASES) * len(PLATFORMS) * len(configs)

    distinct = {
        (name, block.behavior) for build in builders for name, block in build().blocks.items()
    }
    lowered = [o.result.stage("frontend").info["blocks_lowered"] for o in outcome]
    assert sum(lowered) == len(distinct)
    # only the first point of each diagram lowers anything
    points = len(PLATFORMS) * len(configs)
    assert lowered[::points] == [len(build().blocks) for build in builders]

    cases = itertools.product(builders, PLATFORMS.values(), configs)
    for point, (build, platform, config) in zip(outcome, cases):
        diagram = build()
        fresh = Pipeline(platform(), config, WcetAnalysisCache()).run(diagram)
        assert fresh.stage("frontend").info["blocks_lowered"] == len(diagram.blocks)
        assert _observed(point.result) == _observed(fresh), point.label

    # clear() empties the memo: the next compile lowers every block
    cache.clear()
    assert not cache.lowerings
    diagram = builders[0]()
    again = Pipeline(PLATFORMS["generic2"](), configs[0], cache).run(diagram)
    assert again.stage("frontend").info["blocks_lowered"] == len(diagram.blocks)
