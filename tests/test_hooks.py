"""Tests for the fault-isolated hook pipeline (repro.hooks)."""

from __future__ import annotations

import pytest

from repro.core.experiment import Scenario, ScenarioConfig
from repro.hooks import (
    FAIL_CLOSED,
    FAIL_OPEN,
    HookPoint,
    Pipeline,
    TeardownStack,
    hook_errors_counter,
)
from repro.net.addresses import Ipv4Address, MacAddress
from repro.perf import PERF
from repro.schemes.base import Scheme, SchemeProfile, Severity

IP = Ipv4Address("10.9.9.1")
MAC = MacAddress("02:00:00:00:09:01")


def errors_for(point: str, scheme: str) -> float:
    return hook_errors_counter().labels(point=point, scheme=scheme).value


class TestOrdering:
    def test_insertion_order_on_equal_priority(self):
        point = HookPoint("t.order")
        calls = []
        point.add(lambda: calls.append("a"))
        point.add(lambda: calls.append("b"))
        point.add(lambda: calls.append("c"))
        point.emit()
        assert calls == ["a", "b", "c"]

    def test_lower_priority_runs_first(self):
        point = HookPoint("t.prio")
        calls = []
        point.add(lambda: calls.append("late"), priority=10)
        point.add(lambda: calls.append("early"), priority=-10)
        point.add(lambda: calls.append("mid"))
        point.emit()
        assert calls == ["early", "mid", "late"]

    def test_verdict_first_non_none_wins(self):
        point = HookPoint("t.verdict")
        point.add(lambda: None)
        point.add(lambda: False)
        point.add(lambda: True)  # never reached
        assert point.verdict() is False


class TestRemovalTokens:
    def test_token_removes_exactly_its_hook(self):
        point = HookPoint("t.tok")
        calls = []
        point.add(lambda: calls.append("keep"))
        token = point.add(lambda: calls.append("gone"))
        token()
        point.emit()
        assert calls == ["keep"]

    def test_token_is_idempotent(self):
        point = HookPoint("t.tok2")
        token = point.add(lambda: None)
        token()
        token()  # second call is a no-op, not an error
        assert len(point) == 0

    def test_hook_removing_itself_mid_dispatch(self):
        point = HookPoint("t.selfrm")
        calls = []
        tokens = {}

        def self_removing():
            calls.append("once")
            tokens["me"]()

        tokens["me"] = point.add(self_removing)
        point.add(lambda: calls.append("after"))
        point.emit()
        point.emit()
        assert calls == ["once", "after", "after"]

    def test_hook_removing_a_later_hook_mid_dispatch(self):
        point = HookPoint("t.otherrm")
        calls = []
        tokens = {}
        point.add(lambda: tokens["b"]())
        tokens["b"] = point.add(lambda: calls.append("b"))
        point.emit()
        assert calls == []  # b was deactivated before its snapshot slot ran
        point.emit()
        assert calls == []

    def test_hook_adding_during_dispatch_does_not_run_this_round(self):
        point = HookPoint("t.add")
        calls = []

        def adder():
            calls.append("adder")
            point.add(lambda: calls.append("new"))

        token = point.add(adder)
        point.emit()
        assert calls == ["adder"]
        token()
        point.emit()
        assert calls == ["adder", "new"]


class TestFaultIsolation:
    def test_emit_isolates_and_counts(self):
        point = HookPoint("t.emit")
        before = errors_for("t.emit", "boomer")
        perf_before = PERF.hook_errors
        seen = []

        def boom(x):
            raise RuntimeError("boom")

        point.add(boom, owner="boomer")
        point.add(seen.append)
        point.emit(42)
        assert seen == [42]
        assert errors_for("t.emit", "boomer") == before + 1
        assert PERF.hook_errors == perf_before + 1

    def test_verdict_fail_open_abstains(self):
        point = HookPoint("t.vopen", policy=FAIL_OPEN)
        point.add(lambda: (_ for _ in ()).throw(ValueError()), owner="x")
        point.add(lambda: True)
        assert point.verdict() is True

    def test_verdict_fail_closed_vetoes(self):
        point = HookPoint("t.vclosed", policy=FAIL_CLOSED)
        point.add(lambda: (_ for _ in ()).throw(ValueError()), owner="x")
        point.add(lambda: True)
        assert point.verdict() is False

    def test_allow_fail_open_allows(self):
        point = HookPoint("t.aopen", policy=FAIL_OPEN)
        point.add(lambda: (_ for _ in ()).throw(ValueError()), owner="x")
        assert point.allow() == (True, None)

    def test_allow_fail_closed_names_the_culprit(self):
        point = HookPoint("t.aclosed", policy=FAIL_CLOSED)
        point.add(lambda: (_ for _ in ()).throw(ValueError()), owner="culprit")
        allowed, scheme = point.allow()
        assert allowed is False
        assert scheme == "culprit"

    def test_allow_names_vetoing_scheme(self):
        point = HookPoint("t.veto")
        point.add(lambda: True, owner="pass")
        point.add(lambda: False, owner="veto")
        assert point.allow() == (False, "veto")

    def test_transform_error_keeps_value(self):
        point = HookPoint("t.xform")
        point.add(lambda v: (_ for _ in ()).throw(ValueError()), owner="x")
        point.add(lambda v: v + 1)
        assert point.transform(10) == 11

    def test_owner_falls_back_to_obs_scheme_label(self):
        point = HookPoint("t.label")

        def fn():
            raise RuntimeError()

        fn._obs_scheme = "labeled-scheme"
        point.add(fn)
        before = errors_for("t.label", "labeled-scheme")
        point.emit()
        assert errors_for("t.label", "labeled-scheme") == before + 1


class TestListCompat:
    def test_append_remove_contains_iter(self):
        point = HookPoint("t.list")

        def tap(x):
            pass

        point.append(tap)
        assert tap in point
        assert list(point) == [tap]
        assert len(point) == 1 and bool(point)
        point.remove(tap)
        assert tap not in point and not point

    def test_remove_unknown_raises(self):
        point = HookPoint("t.list2")
        with pytest.raises(ValueError):
            point.remove(lambda: None)


class TestPipeline:
    def test_point_is_cached(self):
        pipe = Pipeline(node="h1")
        assert pipe.point("a") is pipe.point("a")

    def test_set_policy_flips_every_point(self):
        pipe = Pipeline(node="h1", policy=FAIL_OPEN)
        a, b = pipe.point("a"), pipe.point("b")
        pipe.set_policy(FAIL_CLOSED)
        assert a.policy == FAIL_CLOSED and b.policy == FAIL_CLOSED

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            Pipeline(policy="explode")
        with pytest.raises(ValueError):
            HookPoint("t.bad", policy="explode")


class TestTeardownStack:
    def test_lifo_order(self):
        stack = TeardownStack(owner="s")
        order = []
        stack.push(lambda: order.append(1))
        stack.push(lambda: order.append(2))
        assert stack.close() == 0
        assert order == [2, 1]

    def test_all_run_even_when_one_raises(self):
        stack = TeardownStack(owner="s")
        order = []
        stack.push(lambda: order.append("first"))
        stack.push(lambda: (_ for _ in ()).throw(RuntimeError()))
        stack.push(lambda: order.append("last"))
        before = errors_for("scheme.teardown", "s")
        assert stack.close() == 1
        assert order == ["last", "first"]
        assert errors_for("scheme.teardown", "s") == before + 1

    def test_close_drains(self):
        stack = TeardownStack()
        calls = []
        stack.push(lambda: calls.append(1))
        stack.close()
        stack.close()
        assert calls == [1]


class CrashyScheme(Scheme):
    """Installs one always-raising ARP guard on every protected host."""

    profile = SchemeProfile(
        key="crashy",
        display_name="Crashy scheme",
        kind="detection",
        placement="host",
        requires_infra_change=False,
        requires_host_change=True,
        requires_crypto=False,
        supports_dhcp_networks=True,
        cost="free",
        reference="test fixture",
    )

    def _install(self, lan, protected):
        for host in protected:
            self._attach(host.arp_guards, self._guard)

    def _guard(self, host, arp, frame):
        raise RuntimeError("deliberate crash")


class TestSchemeIntegration:
    def test_raising_guard_is_isolated_attributed_and_run_completes(self):
        before = errors_for("host.arp_guard", "crashy")
        scenario = Scenario(ScenarioConfig(seed=3))
        scheme = CrashyScheme()
        scenario.install(scheme)
        scenario.warm_caches()  # exercises ARP; guards raise on every packet
        assert errors_for("host.arp_guard", "crashy") > before
        # Fail-open: the crash never broke resolution.
        assert scenario.gateway.ip in scenario.victim.arp_cache
        scheme.uninstall()

    def test_uninstall_idempotent_and_isolated(self, lan):
        class BadTeardown(CrashyScheme):
            def __init__(self):
                super().__init__()
                self.cleaned = 0

            def _install(self, lan, protected):
                self._on_teardown(lambda: (_ for _ in ()).throw(RuntimeError()))
                self._on_teardown(self._count)

            def _count(self):
                self.cleaned += 1

        lan.add_host("h1")
        scheme = BadTeardown()
        scheme.install(lan)
        before = errors_for("scheme.teardown", "crashy")
        scheme.uninstall()
        assert scheme.cleaned == 1
        assert not scheme.installed
        assert errors_for("scheme.teardown", "crashy") == before + 1
        scheme.uninstall()  # idempotent: nothing reruns
        assert scheme.cleaned == 1

    def test_uninstall_removes_guards(self, lan):
        host = lan.add_host("h1")
        scheme = CrashyScheme()
        scheme.install(lan)
        assert len(host.arp_guards) == 1
        scheme.uninstall()
        assert len(host.arp_guards) == 0


class TestObsIntegration:
    def test_hook_counters_reach_prometheus_export(self):
        from repro.obs.export import to_prometheus
        from repro.obs.registry import REGISTRY

        point = HookPoint("t.export", policy=FAIL_CLOSED)
        point.add(lambda: False, owner="exporter")
        assert point.allow() == (False, "exporter")
        text = to_prometheus(REGISTRY.snapshot())
        assert 'hook_drops_total{point="t.export",scheme="exporter"}' in text
        assert "repro_perf_hook_errors" in text
        assert "repro_perf_dedup_evictions" in text


class DedupScheme(Scheme):
    profile = SchemeProfile(
        key="dedup-test",
        display_name="Dedup test scheme",
        kind="detection",
        placement="monitor",
        requires_infra_change=False,
        requires_host_change=False,
        requires_crypto=False,
        supports_dhcp_networks=True,
        cost="free",
        reference="test fixture",
    )
    DEDUP_CAP = 8

    def _install(self, lan, protected):
        pass


class TestDedupLru:
    def test_table_is_bounded_and_evictions_counted(self):
        scheme = DedupScheme()
        before = PERF.dedup_evictions
        for i in range(50):
            scheme.raise_alert(
                float(i), Severity.WARNING, "k",
                dedup_window=1000.0, dedup_key=("k", i),
            )
        assert len(scheme._dedup_seen) == DedupScheme.DEDUP_CAP
        assert PERF.dedup_evictions == before + 50 - DedupScheme.DEDUP_CAP
        assert len(scheme.alerts) == 50  # distinct keys: nothing suppressed

    def test_refresh_keeps_hot_keys(self):
        scheme = DedupScheme()
        # Insert the hot key, then re-alert it after the window while
        # churning enough cold keys to evict anything stale.
        scheme.raise_alert(0.0, Severity.WARNING, "k",
                           dedup_window=5.0, dedup_key=("hot",))
        scheme.raise_alert(10.0, Severity.WARNING, "k",
                           dedup_window=5.0, dedup_key=("hot",))
        for i in range(DedupScheme.DEDUP_CAP - 1):
            scheme.raise_alert(11.0, Severity.WARNING, "k",
                               dedup_window=5.0, dedup_key=("cold", i))
        # The hot key was refreshed at t=10, so it must still dedup.
        assert ("hot",) in scheme._dedup_seen


# ======================================================================
# Traced dispatch (characterization)
# ======================================================================
_MODES = ("emit", "verdict", "allow")
_BEHAVIOURS = {
    "accept": lambda: True,
    "veto": lambda: False,
    "abstain": lambda: None,
    "raise": lambda: (_ for _ in ()).throw(ValueError("boom")),
}


def _expected_trace(mode, owned, behaviour, policy, point):
    """What traced dispatch records for [hook under test, accepting tail].

    Returns ``(events, result, drops, errors)``: the full event list
    under a clock that ticks once per read, the dispatch return value,
    and the ``hook_drops_total``/``hook_errors_total`` deltas by scheme.
    """
    from repro.obs.trace import ObsEvent

    clock = iter(range(100))
    events, drops, errors = [], {}, {}
    label = "mine" if owned else "fb"

    def span(scheme, inner=(), **verdict):
        start = next(clock)
        events.extend(inner_event(next(clock)) for inner_event in inner)
        end = next(clock)
        attrs = {"scheme": scheme, "node": "n1", "frame": 7, **verdict}
        events.append(ObsEvent("scheme.inspect", start, end - start, "span", attrs))

    def error_instant(ts):
        attrs = {
            "point": point, "node": "n1", "scheme": "mine" if owned else "unlabeled",
            "error": "ValueError", "policy": policy, "frame": 7,
        }
        return ObsEvent("hook.error", ts, None, "instant", attrs)

    raised = behaviour == "raise"
    if raised:
        errors["mine" if owned else "unlabeled"] = 1.0
    inner = (error_instant,) if raised else ()
    if mode == "emit":
        if owned:
            span("mine", inner)
        elif raised:
            events.append(error_instant(next(clock)))
        span("tail")
        return events, None, drops, errors

    done = object()
    if mode == "verdict":
        if raised:
            span(label, inner, verdict="error")
            result = False if policy == FAIL_CLOSED else done
        elif behaviour == "abstain":
            span(label)
            result = done
        else:
            value = _BEHAVIOURS[behaviour]()
            span(label, verdict="accept" if value else "drop")
            result = value
        if result is False:
            drops[label] = 1.0
        if result is done:
            span("tail", verdict="accept")
            result = True
        return events, result, drops, errors

    if raised:
        span(label, inner, verdict="error")
        vetoed = policy == FAIL_CLOSED
    else:
        vetoed = not _BEHAVIOURS[behaviour]()
        span(label, verdict="drop" if vetoed else "allow")
    if vetoed:
        drops[label] = 1.0
        return events, (False, label), drops, errors
    span("tail", verdict="allow")
    return events, (True, None), drops, errors


def _point_counts(delta, family, point):
    samples = delta["metrics"].get(family, {}).get("samples", [])
    return {
        s["labels"]["scheme"]: s["value"]
        for s in samples
        if s["labels"]["point"] == point
    }


class TestTracedDispatch:
    """Pins traced ``emit``/``verdict``/``allow`` event for event."""

    @pytest.mark.parametrize("policy", [FAIL_OPEN, FAIL_CLOSED])
    @pytest.mark.parametrize("behaviour", sorted(_BEHAVIOURS))
    @pytest.mark.parametrize("owned", [True, False], ids=["owned", "unowned"])
    @pytest.mark.parametrize("mode", _MODES)
    def test_trace_result_and_counters(self, mode, owned, behaviour, policy):
        from repro.obs.registry import REGISTRY
        from repro.obs.trace import TRACER

        name = f"t.traced.{mode}.{int(owned)}.{behaviour}.{policy}"
        point = HookPoint(name, node="n1", policy=policy, fallback_label="fb")
        point.add(_BEHAVIOURS[behaviour], owner="mine" if owned else None)
        point.add(lambda: True, owner="tail")
        expected = _expected_trace(mode, owned, behaviour, policy, name)

        ticks = iter(range(100))
        before = REGISTRY.snapshot()
        perf_before = PERF.hook_errors
        TRACER.reset()
        TRACER.use_clock(lambda: next(ticks))
        TRACER.current_frame = 7
        TRACER.enable()
        try:
            result = getattr(point, mode)()
        finally:
            TRACER.disable()
        events = list(TRACER.events)
        TRACER.reset()
        delta = REGISTRY.delta(before)

        assert events == expected[0]
        assert result == expected[1] and type(result) is type(expected[1])
        assert _point_counts(delta, "hook_drops_total", name) == expected[2]
        assert _point_counts(delta, "hook_errors_total", name) == expected[3]
        assert PERF.hook_errors - perf_before == sum(expected[3].values())

    def test_teardown_error_instant(self):
        from repro.obs.trace import TRACER

        stack = TeardownStack(owner="td-owner")
        stack.push(lambda: (_ for _ in ()).throw(KeyError("gone")))
        before = errors_for("scheme.teardown", "td-owner")
        perf_before = PERF.hook_errors
        TRACER.reset()
        TRACER.use_clock(lambda: 3.0)
        TRACER.enable()
        try:
            assert stack.close() == 1
        finally:
            TRACER.disable()
        events = list(TRACER.events)
        TRACER.reset()
        assert [(e.name, e.ts, e.dur, e.kind, e.attrs) for e in events] == [
            ("hook.error", 3.0, None, "instant", {
                "point": "scheme.teardown", "scheme": "td-owner",
                "error": "KeyError", "node": None, "policy": FAIL_OPEN,
                "frame": None,
            }),
        ]
        assert errors_for("scheme.teardown", "td-owner") == before + 1
        assert PERF.hook_errors == perf_before + 1
