"""The package's public surface: exports, errors, versioning."""

import importlib
import inspect
import pkgutil
import sys

import pytest

import repro
from repro import errors


def packages():
    """``repro`` and every subpackage, imported."""
    found = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    return [repro] + [importlib.import_module(info.name) for info in found if info.ispkg]


def own_public_callables(package):
    """``(name, object)`` for each public class or function the package
    binds whose defining module lies inside the package."""
    inside = package.__name__ + "."
    for name, obj in sorted(vars(package).items()):
        if name.startswith("_") or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if obj.__module__ == package.__name__ or obj.__module__.startswith(inside):
            yield name, obj


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_readme_quickstart_works(self):
        """The README's first code block, verbatim semantics."""
        from repro import FXTMMatcher, Subscription, Constraint, Event, Interval

        matcher = FXTMMatcher(prorate=True)
        matcher.add_subscription(
            Subscription(
                "spring-break",
                [
                    Constraint("age", Interval(18, 24), weight=2.0),
                    Constraint(
                        "state", {"Indiana", "Illinois", "Wisconsin"}, weight=1.0
                    ),
                ],
            )
        )
        event = Event({"age": Interval(20, 30), "state": "Indiana"})
        results = matcher.match(event, k=10)
        assert results[0].sid == "spring-break"
        assert results[0].score == pytest.approx(1.8)

    @pytest.mark.parametrize("package", packages(), ids=lambda package: package.__name__)
    def test_reexports_agree_with_defining_modules(self, package):
        names = dict(own_public_callables(package))
        assert names, package.__name__
        for name, obj in names.items():
            assert name in package.__all__, name
            module = sys.modules[obj.__module__]
            # A module without __all__ exports every public name.
            assert name in getattr(module, "__all__", (name,)), (module.__name__, name)

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.bench
        import repro.core
        import repro.distributed
        import repro.obs
        import repro.structures
        import repro.workloads

        assert repro.baselines.NaiveMatcher
        assert repro.distributed.DistributedTopKSystem
        assert repro.obs.MetricsRegistry
        assert repro.workloads.MicroWorkload


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_codec_and_pricing_errors_in_hierarchy(self):
        from repro.core.codec import CodecError
        from repro.core.parser import ParseError
        from repro.core.pricing import PricingError

        for error_cls in (CodecError, ParseError, PricingError):
            assert issubclass(error_cls, errors.ReproError)

    def test_error_messages_carry_context(self):
        error = errors.DuplicateSubscriptionError("ad-1")
        assert "ad-1" in str(error)
        assert error.sid == "ad-1"
        interval_error = errors.InvalidIntervalError(5, 1)
        assert interval_error.low == 5
        assert interval_error.high == 1

    def test_library_failures_catchable_in_one_except(self):
        from repro import FXTMMatcher, Constraint, Subscription

        matcher = FXTMMatcher()
        matcher.add_subscription(Subscription("s", [Constraint("a", 1)]))
        caught = 0
        for action in (
            lambda: matcher.add_subscription(Subscription("s", [Constraint("a", 1)])),
            lambda: matcher.cancel_subscription("ghost"),
        ):
            try:
                action()
            except errors.ReproError:
                caught += 1
        assert caught == 2
