"""Proof-carrying results: certificate construction and acceptance.

The adversarial side (each checker rejecting a seeded tamper) lives in
``test_certify_tamper.py``; randomized whole-chain smoke lives in
``test_certify_property.py``.
"""

import json
from collections import Counter

import pytest

from repro.adl.architecture import Platform
from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.certify import (
    CertificationError,
    build_certificates,
    build_ipet_certificate,
    build_schedule_certificate,
    certify_pipeline_result,
)
from repro.analysis.report import severity_at_least
from repro.cli import main
from repro.core.config import ToolchainConfig
from repro.core.pipeline import run_pipeline
from repro.scheduling.schedule import Schedule
from repro.usecases import ALL_USECASES
from repro.wcet.hardware_model import HardwareCostModel
from repro.wcet.ipet import IpetResult, ipet_wcet


SMALL = dict(granularity="loop", loop_chunks=2)


@pytest.fixture(scope="module")
def platform():
    return generic_predictable_multicore(cores=4)


@pytest.fixture(scope="module")
def certified_run(platform):
    build, _ = ALL_USECASES["polka"]
    return run_pipeline(
        build(), platform, ToolchainConfig(certify=True, **SMALL)
    )


class TestCertificateChain:
    def test_pipeline_attaches_an_accepted_chain(self, certified_run):
        chain = certified_run.certificates
        assert chain is not None
        assert chain.ok
        assert [r.analysis for r in chain.reports] == [
            "certify_schedule", "certify_ipet",
        ]
        assert chain.findings() == []
        # the checkers actually did work, they did not vacuously pass
        assert chain.reports[0].checked["tasks_checked"] > 0
        assert chain.reports[0].checked["equations_checked"] > 0
        assert chain.reports[1].checked["edges_checked"] > 0

    @pytest.mark.parametrize("usecase", sorted(ALL_USECASES))
    def test_all_usecases_certify_clean(self, usecase, platform):
        build, _ = ALL_USECASES[usecase]
        result = run_pipeline(build(), platform, ToolchainConfig(**SMALL))
        chain = certify_pipeline_result(result)
        assert chain.ok, [str(f) for f in chain.findings()]

    def test_chain_is_serializable(self, certified_run):
        payload = certified_run.certificates.as_dict()
        assert payload["ok"] is True
        kinds = [c["kind"] for c in payload["certificates"]]
        assert kinds == ["schedule", "ipet"]
        json.dumps(payload)  # fully JSON-able, no tuples/sets left

    def test_certify_off_yields_none_artifact(self, platform):
        build, _ = ALL_USECASES["polka"]
        result = run_pipeline(build(), platform, ToolchainConfig(**SMALL))
        assert result.certificates is None
        assert "certify" in result.timings

    def test_derive_facts_path_also_accepts(self, certified_run):
        chain = certify_pipeline_result(certified_run, derive_facts=True)
        assert chain.ok

    def test_ipet_result_carries_the_lp_witness(self, certified_run, platform):
        result = ipet_wcet(
            certified_run.model.entry, HardwareCostModel(platform, 0)
        )
        assert result.edge_counts
        assert result.block_costs
        assert result.duals is not None
        assert set(result.duals) == {"flow", "entry", "exit", "loop"}

    def test_schedule_certify_method(self, certified_run, platform):
        report = certified_run.schedule.certify(certified_run.htg, platform)
        assert report.ok
        assert report.checked["tasks_checked"] > 0

    def test_each_transfer_is_priced_once_per_side(self, monkeypatch):
        """Building and checking the chain asks the platform for each
        distinct (payload, source core, destination core) exactly once: the
        witness carries no delays, and the checker prices each transfer
        once (polka at loop x 4 on eight cores: 132 cross-core edges, 56
        distinct transfers)."""
        platform = generic_predictable_multicore(cores=8)
        build, _ = ALL_USECASES["polka"]
        result = run_pipeline(
            build(), platform, ToolchainConfig(granularity="loop", loop_chunks=4)
        )
        calls = Counter()
        real = Platform.communication_latency

        def counting(self, num_bytes, src_core, dst_core, contenders=0):
            calls[(num_bytes, src_core, dst_core)] += 1
            return real(self, num_bytes, src_core, dst_core, contenders)

        monkeypatch.setattr(Platform, "communication_latency", counting)
        chain = build_certificates(
            result.schedule, result.model.entry, result.htg, platform
        )
        assert chain.ok
        assert calls, "the case must have priced cross-core transfers"
        assert len(calls) == 56
        assert set(calls.values()) == {1}, calls.most_common(3)


class TestConstructionErrors:
    def test_unanalysed_schedule_is_rejected(self, certified_run, platform):
        bare = Schedule(
            htg_name="x",
            mapping=dict(certified_run.schedule.mapping),
            order=dict(certified_run.schedule.order),
        )
        with pytest.raises(ValueError, match="unanalysed"):
            build_schedule_certificate(bare, certified_run.htg, platform)

    def test_witnessless_ipet_result_is_rejected(self, certified_run):
        hollow = IpetResult(wcet=1.0, block_counts={}, cfg=None)
        with pytest.raises(ValueError, match="witness"):
            build_ipet_certificate(hollow, "f")

    def test_config_certify_must_be_bool(self):
        with pytest.raises(ValueError, match="certify"):
            ToolchainConfig(certify="yes")

    def test_certify_without_platform_artifact(self, certified_run):
        class Hollow:
            artifacts = {}

        with pytest.raises(CertificationError, match="platform"):
            certify_pipeline_result(Hollow())


class TestSeverityThreshold:
    @pytest.mark.parametrize(
        ("severity", "threshold", "expected"),
        [
            ("error", "error", True),
            ("warning", "error", False),
            ("error", "warning", True),
            ("info", "warning", False),
            ("info", "info", True),
        ],
    )
    def test_ordering(self, severity, threshold, expected):
        assert severity_at_least(severity, threshold) is expected

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            severity_at_least("fatal", "error")


class TestCertifyCli:
    def test_clean_target_exits_zero(self, capsys):
        assert main(["certify", "polka"]) == 0
        out = capsys.readouterr().out
        assert "polka: clean" in out
        assert "certify_ipet" in out

    def test_json_payload(self, capsys):
        assert main(["certify", "polka", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == 0
        assert payload["targets"][0]["ok"] is True
        assert [r["analysis"] for r in payload["targets"][0]["reports"]] == [
            "certify_schedule", "certify_ipet",
        ]

    def test_unknown_target_is_usage_error(self, capsys):
        assert main(["certify", "no_such_thing"]) == 2
        assert "unknown certify target" in capsys.readouterr().err

    def test_lint_gains_fail_on(self, capsys):
        # a clean target is exit 0 under every threshold
        assert main(["lint", "polka", "--fail-on", "error"]) == 0
