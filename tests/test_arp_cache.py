"""Unit tests for the per-host ARP cache."""

from __future__ import annotations

import pytest

from repro.net.addresses import Ipv4Address, MacAddress
from repro.stack import arp_cache
from repro.stack.arp_cache import ArpCache, BindingSource

IP = Ipv4Address("192.168.88.10")
M1 = MacAddress("02:00:00:00:00:01")
M2 = MacAddress("02:00:00:00:00:02")


class TestArpCacheBasics:
    def test_put_and_get(self):
        cache = ArpCache()
        cache.put(IP, M1, now=0.0, source=BindingSource.SOLICITED_REPLY)
        assert cache.get(IP, now=1.0) == M1

    def test_expiry(self):
        cache = ArpCache(default_timeout=10.0)
        cache.put(IP, M1, now=0.0, source=BindingSource.SOLICITED_REPLY)
        assert cache.get(IP, now=9.9) == M1
        assert cache.get(IP, now=10.1) is None

    def test_custom_timeout(self):
        cache = ArpCache(default_timeout=10.0)
        cache.put(IP, M1, now=0.0, source=BindingSource.DHCP, timeout=100.0)
        assert cache.get(IP, now=50.0) == M1

    def test_update_overwrites(self):
        cache = ArpCache()
        cache.put(IP, M1, now=0.0, source=BindingSource.SOLICITED_REPLY)
        cache.put(IP, M2, now=1.0, source=BindingSource.UNSOLICITED_REPLY)
        assert cache.get(IP, now=2.0) == M2

    def test_contains_and_len(self):
        cache = ArpCache()
        cache.put(IP, M1, now=0.0, source=BindingSource.REQUEST)
        assert IP in cache
        assert len(cache) == 1


class TestStaticEntries:
    def test_pin_resists_dynamic_update(self):
        cache = ArpCache()
        cache.pin(IP, M1)
        assert not cache.put(IP, M2, now=1.0, source=BindingSource.UNSOLICITED_REPLY)
        assert cache.get(IP, now=2.0) == M1
        assert cache.rejected_updates == 1

    def test_pin_never_expires(self):
        cache = ArpCache(default_timeout=1.0)
        cache.pin(IP, M1)
        assert cache.get(IP, now=1e9) == M1

    def test_unpin_restores_dynamics(self):
        cache = ArpCache()
        cache.pin(IP, M1)
        cache.unpin(IP)
        assert cache.put(IP, M2, now=0.0, source=BindingSource.SOLICITED_REPLY)

    def test_unpin_leaves_dynamic_entries_alone(self):
        cache = ArpCache()
        cache.put(IP, M1, now=0.0, source=BindingSource.SOLICITED_REPLY)
        cache.unpin(IP)
        assert cache.get(IP, now=0.5) == M1

    def test_flush_dynamic_keeps_pins(self):
        cache = ArpCache()
        cache.pin(IP, M1)
        other = Ipv4Address("192.168.88.11")
        cache.put(other, M2, now=0.0, source=BindingSource.REQUEST)
        cache.flush_dynamic()
        assert IP in cache and other not in cache

    def test_age_out_respects_static(self):
        cache = ArpCache()
        cache.pin(IP, M1)
        assert not cache.age_out(IP)
        assert cache.get(IP, now=0.0) == M1

    def test_age_out_removes_dynamic(self):
        cache = ArpCache()
        cache.put(IP, M1, now=0.0, source=BindingSource.REQUEST)
        assert cache.age_out(IP)
        assert cache.get(IP, now=0.0) is None


class TestChangeNotifications:
    def test_listener_sees_rebinding(self):
        cache = ArpCache()
        seen = []
        cache.on_change(seen.append)
        cache.put(IP, M1, now=0.0, source=BindingSource.SOLICITED_REPLY)
        cache.put(IP, M2, now=1.0, source=BindingSource.UNSOLICITED_REPLY)
        assert len(seen) == 2
        assert not seen[0].is_rebinding
        assert seen[1].is_rebinding
        assert seen[1].old_mac == M1 and seen[1].new_mac == M2

    def test_refresh_is_not_rebinding(self):
        cache = ArpCache()
        seen = []
        cache.on_change(seen.append)
        cache.put(IP, M1, now=0.0, source=BindingSource.REQUEST)
        cache.put(IP, M1, now=1.0, source=BindingSource.REQUEST)
        assert len(seen) == 2
        assert not any(change.is_rebinding for change in seen)

    def test_unsubscribe(self):
        cache = ArpCache()
        seen = []
        unsubscribe = cache.on_change(seen.append)
        unsubscribe()
        cache.put(IP, M1, now=0.0, source=BindingSource.REQUEST)
        assert seen == []

    def test_unsubscribing_during_a_dispatch_still_delivers_that_change(self):
        cache = ArpCache()
        seen = []
        unsubscribe_b = None

        def a(change):
            seen.append("a")
            unsubscribe_b()

        unsubscribe_a = cache.on_change(a)
        unsubscribe_b = cache.on_change(lambda change: seen.append("b"))
        cache.put(IP, M1, now=0.0, source=BindingSource.REQUEST)
        assert seen == ["a", "b"]
        unsubscribe_a()
        cache.put(IP, M2, now=1.0, source=BindingSource.REQUEST)
        assert seen == ["a", "b"]

    def test_no_change_is_built_without_a_listener(self, monkeypatch):
        def built(**fields):
            raise AssertionError("an ArpCacheChange was built for nobody")

        monkeypatch.setattr(arp_cache, "ArpCacheChange", built)
        cache = ArpCache()
        assert cache.put(IP, M1, now=0.0, source=BindingSource.REQUEST)
        cache.pin(IP, M2, now=1.0)
        assert cache.get(IP, now=2.0) == M2

    def test_history_records_sources(self):
        cache = ArpCache()
        seen = []
        cache.on_change(seen.append)
        cache.put(IP, M1, now=0.0, source=BindingSource.GRATUITOUS)
        assert seen[0].source == BindingSource.GRATUITOUS

    def test_entry_inspection(self):
        cache = ArpCache()
        cache.put(IP, M1, now=3.0, source=BindingSource.SARP)
        entry = cache.entry(IP)
        assert entry is not None
        assert entry.source == BindingSource.SARP
        assert entry.updated_at == 3.0
