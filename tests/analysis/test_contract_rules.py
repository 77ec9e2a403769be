"""FX504/FX603/FX7xx cross-module contract rules over synthetic trees.

Each rule gets a pre-fix tree (reproducing the drift the rule was built
to catch on the real codebase) and a fixed tree that must come back
clean, so the rules themselves are regression-tested in both directions.
"""

import textwrap

from repro.analysis.checker import check_project
from repro.analysis.crosslayer import ReexportDriftRule
from repro.analysis.disthygiene import HopPolicyRule, SwallowedExceptionRule
from repro.analysis.obscontracts import LogEventAssertedRule


def analyze(tmp_path, rule, files, tests=None):
    """Run one project rule over a synthetic ``repro`` tree."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).lstrip("\n"))
    tests_root = None
    if tests is not None:
        tests_root = tmp_path / "reference"
        tests_root.mkdir(exist_ok=True)
        for name, source in tests.items():
            (tests_root / name).write_text(textwrap.dedent(source))
    findings, _, _ = check_project(
        [str(tmp_path / "repro")],
        rules=[rule],
        tests_root=str(tests_root) if tests_root else None,
    )
    return findings


class TestFX504LogEventAsserted:
    FILES = {
        "repro/distributed/health.py": """
        class T:
            def beat(self):
                self.logger.info("leaf.alive", leaf=1)
                self.logger.info("plain message with spaces")
        """,
    }

    def test_unasserted_event_flagged(self, tmp_path):
        findings = analyze(
            tmp_path,
            LogEventAssertedRule(),
            self.FILES,
            tests={"test_other.py": "def test():\n    assert 'leaf.dead'\n"},
        )
        (finding,) = findings
        assert finding.code == "FX504"
        assert "leaf.alive" in finding.message

    def test_asserted_event_clean(self, tmp_path):
        findings = analyze(
            tmp_path,
            LogEventAssertedRule(),
            self.FILES,
            tests={"test_health.py": "def test(lg):\n    lg.records_for(event='leaf.alive')\n"},
        )
        assert findings == []

    def test_silent_without_reference_tree(self, tmp_path):
        findings = analyze(tmp_path, LogEventAssertedRule(), self.FILES)
        assert findings == []


class TestFX603ReexportDrift:
    def test_both_drift_directions_flagged(self, tmp_path):
        findings = analyze(
            tmp_path,
            ReexportDriftRule(),
            {
                "repro/util/__init__.py": """
                from repro.util.mod import helper, thing

                __all__ = ["thing"]
                """,
                "repro/util/mod.py": """
                __all__ = ["thing"]

                def thing():
                    return 1

                def helper():
                    return 2
                """,
            },
        )
        assert [f.code for f in findings] == ["FX603", "FX603"]
        messages = " | ".join(f.message for f in findings)
        assert "__all__ does not declare it" in messages
        assert "leaves it out of __all__" in messages

    def test_consistent_surfaces_clean(self, tmp_path):
        findings = analyze(
            tmp_path,
            ReexportDriftRule(),
            {
                "repro/util/__init__.py": """
                from repro.util.mod import helper, thing

                __all__ = ["helper", "thing"]
                """,
                "repro/util/mod.py": """
                __all__ = ["helper", "thing"]

                def thing():
                    return 1

                def helper():
                    return 2
                """,
            },
        )
        assert findings == []

    def test_transit_imports_not_misattributed(self, tmp_path):
        # mod imports `thing` itself (not defining it); the package
        # re-export must not be blamed on mod's __all__.
        findings = analyze(
            tmp_path,
            ReexportDriftRule(),
            {
                "repro/util/__init__.py": """
                from repro.util.mod import thing

                __all__ = ["thing"]
                """,
                "repro/util/mod.py": """
                from repro.util.base import thing

                __all__ = ["other"]

                def other():
                    return 1
                """,
                "repro/util/base.py": """
                __all__ = ["thing"]

                def thing():
                    return 2
                """,
            },
        )
        assert findings == []


class TestFX701SwallowedException:
    def test_silent_handler_flagged(self, tmp_path):
        findings = analyze(
            tmp_path,
            SwallowedExceptionRule(),
            {
                "repro/distributed/worker.py": """
                def attempt(task, logger):
                    try:
                        task()
                    except ValueError:
                        pass
                    try:
                        task()
                    except KeyError as error:
                        logger.warning("worker.failed", error=str(error))
                    try:
                        task()
                    except TypeError:
                        raise
                """,
            },
        )
        (finding,) = findings
        assert finding.code == "FX701"
        assert finding.line == 4  # the silent handler, not the other two

    def test_outside_distributed_not_checked(self, tmp_path):
        findings = analyze(
            tmp_path,
            SwallowedExceptionRule(),
            {
                "repro/core/safe.py": """
                def attempt(task):
                    try:
                        task()
                    except ValueError:
                        pass
                """,
            },
        )
        assert findings == []


class TestFX702HopPolicy:
    def test_hop_without_policy_in_scope_flagged(self, tmp_path):
        findings = analyze(
            tmp_path,
            HopPolicyRule(),
            {
                "repro/distributed/net.py": """
                from repro.distributed import latency

                class Link:
                    def send(self, payload):
                        latency.hop(payload)

                    def send_with_policy(self, payload, policy):
                        latency.hop(payload)

                    def send_with_retry(self, payload):
                        self.retry.attempts
                        latency.hop(payload)
                """,
            },
        )
        (finding,) = findings
        assert finding.code == "FX702"
        assert "Link.send" in finding.message

    def test_policy_holder_must_propagate(self, tmp_path):
        findings = analyze(
            tmp_path,
            HopPolicyRule(),
            {
                "repro/distributed/chain.py": """
                from repro.distributed import latency

                class Cluster:
                    def attempt(self, leaf, policy=None):
                        latency.hop(leaf)

                    def drop(self, leaf, policy):
                        return self.attempt(leaf)

                    def forward(self, leaf, policy):
                        return self.attempt(leaf, policy=policy)

                    def forward_positional(self, leaf, policy):
                        return self.attempt(leaf, policy)
                """,
            },
        )
        (finding,) = findings
        assert "Cluster.drop" in finding.message
        assert "policy" in finding.message

    def test_defaultless_callee_not_flagged(self, tmp_path):
        # Omitting a defaultless parameter is a TypeError at runtime —
        # not silent drift, so the rule stays quiet.
        findings = analyze(
            tmp_path,
            HopPolicyRule(),
            {
                "repro/distributed/chain.py": """
                from repro.distributed import latency

                class Cluster:
                    def attempt(self, leaf, policy):
                        latency.hop(leaf)

                    def drop(self, leaf, policy):
                        return self.attempt(leaf)
                """,
            },
        )
        assert findings == []
