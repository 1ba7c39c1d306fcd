"""Unit tests for the metrics layer: alert scoring, poisoning integration."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.metrics import (
    GroundTruth,
    PoisonTracker,
    detection_latency,
    mean,
    percentile,
    poisoned_seconds,
    score_alerts,
    was_ever_poisoned,
)
from repro.net.addresses import Ipv4Address, MacAddress
from repro.schemes.base import Alert, Severity
from repro.sim.simulator import Simulator
from repro.stack.host import Host

ATTACKER = MacAddress("02:00:00:00:00:66")
TRUE_MAC = MacAddress("02:00:00:00:00:01")
IP = Ipv4Address("10.0.0.1")
OTHER_IP = Ipv4Address("10.0.0.2")


def make_alert(time, severity=Severity.WARNING, mac=None, ip=None):
    return Alert(time=time, scheme="t", severity=severity, kind="k", ip=ip, mac=mac)


def make_truth(**kwargs):
    defaults = dict(
        true_bindings={IP: TRUE_MAC},
        attacker_macs={ATTACKER},
        attack_intervals=((10.0, 20.0),),
        targeted_ips={IP},
    )
    defaults.update(kwargs)
    return GroundTruth(**defaults)


class TestScoring:
    def test_tp_when_attacker_mac_during_attack(self):
        truth = make_truth()
        score = score_alerts([make_alert(15.0, mac=ATTACKER)], truth)
        assert score.tp_count == 1 and score.fp_count == 0

    def test_tp_when_targeted_ip_during_attack(self):
        truth = make_truth()
        score = score_alerts([make_alert(15.0, ip=IP)], truth)
        assert score.tp_count == 1

    def test_fp_outside_attack_window(self):
        truth = make_truth()
        score = score_alerts([make_alert(50.0, mac=ATTACKER)], truth)
        assert score.fp_count == 1

    def test_fp_when_innocent_implicated(self):
        truth = make_truth()
        score = score_alerts([make_alert(15.0, ip=OTHER_IP, mac=TRUE_MAC)], truth)
        assert score.fp_count == 1

    def test_slack_window_counts_late_alerts(self):
        truth = make_truth(slack=5.0)
        score = score_alerts([make_alert(23.0, mac=ATTACKER)], truth)
        assert score.tp_count == 1

    def test_info_alerts_separated(self):
        truth = make_truth()
        score = score_alerts(
            [make_alert(15.0, severity=Severity.INFO, mac=ATTACKER)], truth
        )
        assert score.tp_count == 0 and score.fp_count == 0
        assert len(score.informational) == 1

    def test_precision(self):
        truth = make_truth()
        alerts = [make_alert(15.0, mac=ATTACKER), make_alert(50.0, mac=ATTACKER)]
        score = score_alerts(alerts, truth)
        assert score.precision == pytest.approx(0.5)

    def test_fp_rate_per_hour(self):
        truth = make_truth()
        score = score_alerts([make_alert(50.0, mac=ATTACKER)], truth)
        assert score.fp_rate_per_hour(1800.0) == pytest.approx(2.0)


class TestDetectionLatency:
    def test_latency_from_attack_start(self):
        truth = make_truth()
        alerts = [make_alert(13.5, mac=ATTACKER), make_alert(16.0, mac=ATTACKER)]
        assert detection_latency(alerts, truth) == pytest.approx(3.5)

    def test_none_when_undetected(self):
        truth = make_truth()
        assert detection_latency([make_alert(50.0, mac=ATTACKER)], truth) is None

    def test_none_without_attack(self):
        truth = make_truth(attack_intervals=())
        assert detection_latency([make_alert(5.0, mac=ATTACKER)], truth) is None


class TestPoisonedSeconds:
    def make_host(self):
        sim = Simulator(seed=1)
        return sim, Host(sim, "h", mac=MacAddress("02:00:00:00:00:aa"))

    def test_integrates_wrong_binding_time(self):
        sim, host = self.make_host()
        tracker = PoisonTracker(host, IP, TRUE_MAC, windows=((0.0, 30.0),))
        host.arp_cache.put(IP, TRUE_MAC, now=0.0, source="solicited-reply")
        host.arp_cache.put(IP, ATTACKER, now=10.0, source="unsolicited-reply")
        host.arp_cache.put(IP, TRUE_MAC, now=25.0, source="solicited-reply")
        assert poisoned_seconds(tracker, 30.0) == pytest.approx((15.0,))

    def test_poisoned_until_end_of_window(self):
        sim, host = self.make_host()
        tracker = PoisonTracker(host, IP, TRUE_MAC, windows=((0.0, 20.0),))
        host.arp_cache.put(IP, ATTACKER, now=5.0, source="unsolicited-reply")
        assert poisoned_seconds(tracker, 30.0) == pytest.approx((15.0,))

    def test_zero_when_never_poisoned(self):
        sim, host = self.make_host()
        tracker = PoisonTracker(host, IP, TRUE_MAC, windows=((0.0, 30.0),))
        host.arp_cache.put(IP, TRUE_MAC, now=0.0, source="solicited-reply")
        assert poisoned_seconds(tracker, 30.0) == (0.0,)

    def test_state_carried_into_window(self):
        sim, host = self.make_host()
        tracker = PoisonTracker(host, IP, TRUE_MAC, windows=((10.0, 20.0),))
        host.arp_cache.put(IP, ATTACKER, now=1.0, source="unsolicited-reply")
        assert poisoned_seconds(tracker, 30.0) == pytest.approx((10.0,))

    def test_empty_window(self):
        sim, host = self.make_host()
        tracker = PoisonTracker(host, IP, TRUE_MAC, windows=((10.0, 10.0),))
        assert poisoned_seconds(tracker, 30.0) == (0.0,)

    def test_was_ever_poisoned(self):
        sim, host = self.make_host()
        tracker = PoisonTracker(host, IP, TRUE_MAC)
        host.arp_cache.put(IP, TRUE_MAC, now=0.0, source="solicited-reply")
        assert not was_ever_poisoned(tracker)
        host.arp_cache.put(IP, ATTACKER, now=5.0, source="unsolicited-reply")
        assert was_ever_poisoned(tracker)
        sim.run(until=6.0)
        assert not was_ever_poisoned(PoisonTracker(host, IP, TRUE_MAC))

    def test_reads_the_binding_held_when_created(self):
        sim, host = self.make_host()
        sim.run(until=5.0)
        host.arp_cache.put(IP, ATTACKER, now=5.0, source="unsolicited-reply")
        tracker = PoisonTracker(host, IP, TRUE_MAC, windows=((0.0, None),))
        assert was_ever_poisoned(tracker)
        host.arp_cache.put(IP, TRUE_MAC, now=8.0, source="solicited-reply")
        assert poisoned_seconds(tracker, 9.0) == pytest.approx((3.0,))

    def test_open_window_closes_at_each_query(self):
        sim, host = self.make_host()
        tracker = PoisonTracker(host, IP, TRUE_MAC, windows=((0.0, None), (2.0, 4.0)))
        host.arp_cache.put(IP, ATTACKER, now=1.0, source="unsolicited-reply")
        assert poisoned_seconds(tracker, 3.0) == pytest.approx((2.0, 1.0))
        assert poisoned_seconds(tracker, 10.0) == pytest.approx((9.0, 2.0))

    def test_other_ips_and_expiry_do_not_move_the_account(self):
        sim, host = self.make_host()
        tracker = PoisonTracker(host, IP, TRUE_MAC, windows=((0.0, None),))
        host.arp_cache.put(IP, ATTACKER, now=1.0, source="unsolicited-reply")
        host.arp_cache.put(OTHER_IP, TRUE_MAC, now=2.0, source="solicited-reply")
        host.arp_cache.age_out(IP)  # not notified: the last MAC still counts
        assert poisoned_seconds(tracker, 4.0) == pytest.approx((3.0,))

    def test_holds_no_reference_to_its_host(self):
        sim, host = self.make_host()
        tracker = PoisonTracker(host, IP, TRUE_MAC, windows=((0.0, None),))
        host.arp_cache.put(IP, ATTACKER, now=1.0, source="unsolicited-reply")
        alive = weakref.ref(host)
        del host, sim
        gc.collect()
        assert alive() is None
        assert was_ever_poisoned(tracker)
        assert poisoned_seconds(tracker, 2.0) == pytest.approx((1.0,))


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert mean([]) == 0.0

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile([], 50) == 0.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
