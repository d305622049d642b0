"""Unit tests for fault injectors and the ``--faults`` grammar."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    KIND_CRASH,
    KIND_JOIN,
    KIND_LEAVE,
    CompositeFaultInjector,
    FaultController,
    FaultEvent,
    FaultScript,
    NoFaults,
    ProbabilisticCrashes,
    parse_faults,
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FaultEvent(float("nan"), KIND_CRASH, wid=2),
        lambda: parse_faults("crash:2@nan"),
        lambda: parse_faults("join@nan"),
        lambda: ProbabilisticCrashes(0.5, window=float("nan")),
        lambda: FaultController(NoFaults(), lease_timeout=float("nan")),
    ],
    ids=["event-time", "crash-clause", "join-clause", "window", "lease"],
)
def test_nan_times_rejected(build):
    """NaN slips past ``x < 0`` / ``x <= 0`` guards: a crash scripted at
    NaN would fire anyway, and a NaN lease would stall detection."""
    with pytest.raises(ConfigurationError):
        build()


class TestFaultEvent:
    def test_join_must_not_name_a_worker(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, KIND_JOIN, wid=3)

    def test_crash_needs_a_worker(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, KIND_CRASH)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(-0.5, KIND_LEAVE, wid=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, "explode", wid=0)


class TestScriptedInjectors:
    def test_script_sorts_by_time(self):
        script = FaultScript(
            [
                FaultEvent(3.0, KIND_CRASH, 1),
                FaultEvent(1.0, KIND_JOIN),
            ]
        )
        times = [ev.time for ev in script.scripted_events()]
        assert times == sorted(times)

    def test_planned_joins_counts_join_events(self):
        script = FaultScript(
            [
                FaultEvent(1.0, KIND_JOIN),
                FaultEvent(2.0, KIND_JOIN),
                FaultEvent(3.0, KIND_CRASH, 0),
            ]
        )
        assert script.planned_joins == 2
        assert NoFaults().planned_joins == 0

    def test_composite_merges_and_sorts(self):
        composite = CompositeFaultInjector(
            [
                FaultScript([FaultEvent(5.0, KIND_CRASH, 2)]),
                FaultScript([FaultEvent(1.0, KIND_JOIN)]),
            ]
        )
        events = composite.scripted_events()
        assert [ev.time for ev in events] == [1.0, 5.0]
        assert composite.planned_joins == 1


class TestProbabilisticCrashes:
    def test_same_seed_same_events(self):
        a = ProbabilisticCrashes(0.3, seed=11)
        b = ProbabilisticCrashes(0.3, seed=11)
        active = [0, 1, 2, 3]
        assert a.iteration_crashes(2, 10.0, active) == b.iteration_crashes(
            2, 10.0, active
        )

    def test_membership_changes_do_not_shift_other_workers(self):
        # Every worker gets its own (roll, offset) draw in sorted-wid
        # order, so removing one worker leaves the others' events alone
        # except for workers after it in the order.  The stream is keyed
        # on (seed, iteration) only.
        a = ProbabilisticCrashes(1.0, seed=5)
        b = ProbabilisticCrashes(1.0, seed=5)
        full = a.iteration_crashes(0, 0.0, [0, 1, 2])
        assert [ev.wid for ev in full] == [0, 1, 2]
        again = b.iteration_crashes(0, 0.0, [0, 1, 2])
        assert full == again

    def test_max_crashes_caps_emission(self):
        injector = ProbabilisticCrashes(1.0, seed=3, max_crashes=2)
        events = injector.iteration_crashes(0, 0.0, [0, 1, 2, 3])
        assert len(events) == 2

    def test_probability_validated(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticCrashes(1.5)
        with pytest.raises(ConfigurationError):
            ProbabilisticCrashes(0.5, window=0.0)


class TestParseFaults:
    def test_none_forms(self):
        assert parse_faults("none") is None
        assert parse_faults("") is None
        assert parse_faults("off") is None

    def test_scripted_clauses(self):
        injector = parse_faults("crash:2@3.5,leave:1@4,join@6")
        events = injector.scripted_events()
        assert [(ev.kind, ev.wid, ev.time) for ev in events] == [
            (KIND_CRASH, 2, 3.5),
            (KIND_LEAVE, 1, 4.0),
            (KIND_JOIN, None, 6.0),
        ]

    def test_probabilistic_clause(self):
        injector = parse_faults("crashp:0.05:7")
        assert isinstance(injector, ProbabilisticCrashes)
        assert injector.seed == 7

    def test_composite_spec(self):
        injector = parse_faults("crash:0@1,crashp:0.1")
        assert isinstance(injector, CompositeFaultInjector)
        assert injector.planned_joins == 0

    @pytest.mark.parametrize(
        "bad",
        ["crash:0", "crash:@1", "leave:x@2", "join@", "crashp:2.0", "huh"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_faults(bad)
