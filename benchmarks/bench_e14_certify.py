"""E14: proof-carrying results -- checker overhead on the shipped use cases.

PR 7 added certificate chains: every pipeline run can emit a schedule
certificate (the analysed timeline and the interference fixed point
behind its bound) and an IPET certificate, each re-validated by an
independent checker (:mod:`repro.analysis.certify`).  The checkers are
single cheap passes by design -- re-validation must be affordable on
every CI run, not a once-a-release audit.

This experiment runs the full cold pipeline on each built-in use case,
builds the certificate chain once, then times the **check pass** (the two
``check_*`` functions, which is the work a consumer of untrusted results
repeats) against the end-to-end analysis wall clock.  Witness construction
is reported alongside for context; it includes an independent
structured solve of the IPET LP, which is producer-side work a certifying
toolchain amortizes into its normal WCET analysis.

Acceptance: every chain is accepted, and checker overhead stays under 5%
of the end-to-end analysis time on every use case.
"""

import time
from pathlib import Path

try:
    from benchmarks._common import emit
except ModuleNotFoundError:  # direct run: python benchmarks/bench_e14_certify.py
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks._common import emit
from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.certify import certify_pipeline_result
from repro.analysis.certify.ipet_cert import check_ipet_certificate
from repro.analysis.certify.schedule_cert import check_schedule_certificate
from repro.core import ToolchainConfig
from repro.core.pipeline import run_pipeline
from repro.usecases import ALL_USECASES
from repro.utils.tables import Table
from repro.wcet.cache import WcetAnalysisCache

#: acceptance threshold: checking may cost at most this fraction of one
#: end-to-end analysis run
MAX_CHECK_RATIO = 0.05

_PIPELINE_ROUNDS = 3  # best-of-N to keep the denominator honest
_CHECK_BATCHES = 5  # best-of batches: the numerator gets the same treatment
_CHECK_REPS = 10  # the check pass is sub-millisecond; average within a batch


def _measure_usecase(name: str):
    builder, _ = ALL_USECASES[name]
    diagram = builder()
    platform = generic_predictable_multicore(cores=4)

    pipeline_seconds = float("inf")
    for _ in range(_PIPELINE_ROUNDS):
        t0 = time.perf_counter()
        result = run_pipeline(
            diagram, platform, ToolchainConfig(), wcet_cache=WcetAnalysisCache()
        )
        pipeline_seconds = min(pipeline_seconds, time.perf_counter() - t0)

    t0 = time.perf_counter()
    chain = certify_pipeline_result(result)
    build_seconds = time.perf_counter() - t0

    function = result.model.entry
    htg = result.htg
    check_seconds = float("inf")
    for _ in range(_CHECK_BATCHES):
        t0 = time.perf_counter()
        for _ in range(_CHECK_REPS):
            schedule_report = check_schedule_certificate(chain.schedule, htg, platform)
            ipet_report = check_ipet_certificate(chain.ipet, function=function)
        check_seconds = min(
            check_seconds, (time.perf_counter() - t0) / _CHECK_REPS
        )

    accepted = not any(
        r.count("error") for r in (schedule_report, ipet_report)
    )
    return {
        "usecase": name,
        "pipeline_s": pipeline_seconds,
        "build_s": build_seconds,
        "check_s": check_seconds,
        "ratio": check_seconds / pipeline_seconds,
        "chain_ok": chain.ok,
        "recheck_ok": accepted,
    }


def _measure_all():
    return [_measure_usecase(name) for name in ALL_USECASES]


def test_e14_certify_overhead(benchmark):
    rows = benchmark.pedantic(_measure_all, rounds=1, iterations=1)

    table = Table(
        ["use case", "pipeline ms", "witness ms", "check ms", "check %", "accepted"],
        title="E14 certificate checker overhead vs end-to-end analysis",
    )
    for row in rows:
        table.add_row(
            [
                row["usecase"],
                f"{row['pipeline_s'] * 1e3:.1f}",
                f"{row['build_s'] * 1e3:.2f}",
                f"{row['check_s'] * 1e3:.2f}",
                f"{row['ratio'] * 100:.2f}",
                str(row["chain_ok"] and row["recheck_ok"]),
            ]
        )
    emit(table)

    for row in rows:
        # every shipped use case certifies clean ...
        assert row["chain_ok"], f"{row['usecase']}: certificate chain rejected"
        assert row["recheck_ok"], f"{row['usecase']}: re-check rejected the chain"
        # ... and re-checking is cheap enough to run on every CI pass
        assert row["ratio"] < MAX_CHECK_RATIO, (
            f"{row['usecase']}: check pass took {row['ratio'] * 100:.2f}% of the "
            f"analysis wall clock (limit {MAX_CHECK_RATIO * 100:.0f}%)"
        )


if __name__ == "__main__":  # pragma: no cover - manual runs
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
