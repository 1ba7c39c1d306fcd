"""Property-based tests on the stateful substrates (CAM, ARP cache, sim)."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.l2.cam import CamTable
from repro.net.addresses import Ipv4Address, MacAddress
from repro.sim.simulator import Simulator
from repro.stack.arp_cache import ArpCache, BindingSource

macs = st.integers(min_value=1, max_value=200).map(
    lambda n: MacAddress(0x020000000000 | n)
)
ips = st.integers(min_value=1, max_value=200).map(
    lambda n: Ipv4Address(0x0A000000 | n)
)
ports = st.integers(min_value=0, max_value=15)
times = st.floats(min_value=0, max_value=1e4, allow_nan=False)


class CamMachine(RuleBasedStateMachine):
    """CAM table never exceeds capacity, lookups reflect learns, and every
    view of the table (``len``, iteration, ``in``, ``entries_on_port``)
    agrees with :meth:`CamTable.lookup`."""

    def __init__(self):
        super().__init__()
        self.cam = CamTable(capacity=8, aging=100.0)
        self.now = 0.0
        self.model: dict = {}  # mac -> (port, expiry) for non-static
        self.static: dict = {}  # mac -> port

    def _live(self) -> dict:
        live = {m: p for m, (p, exp) in self.model.items() if exp > self.now}
        live.update(self.static)
        return live

    def _expect_learn(self, mac, port) -> bool:
        """Update the model for a learn at ``self.now``; returns whether
        the table must accept it."""
        if mac in self.static:
            return True
        live = self._live()
        if mac not in live and len(live) >= self.cam.capacity:
            return False
        self.model[mac] = (port, self.now + 100.0)
        return True

    @rule(mac=macs, port=ports, dt=st.floats(min_value=0, max_value=50))
    def learn(self, mac, port, dt):
        self.now += dt
        accepted = self.cam.learn(mac, port, now=self.now)
        assert accepted == self._expect_learn(mac, port)

    @rule(mac=macs, port=ports, dt=st.floats(min_value=0, max_value=50))
    def expire_then_learn_wire(self, mac, port, dt):
        self.now += dt
        self.cam.expire(self.now)
        accepted = self.cam.learn_wire(mac.packed, port, self.now)
        assert accepted == self._expect_learn(mac, port)

    @rule(mac=macs, port=ports)
    def add_static(self, mac, port):
        # Static entries bypass the capacity check; keep the table within
        # it so the capacity invariant stays meaningful.
        assume(mac in self.cam or len(self.cam) < self.cam.capacity)
        self.cam.add_static(mac, port, self.now)
        self.model.pop(mac, None)
        self.static[mac] = port

    @rule(port=ports)
    def flush_port(self, port):
        dynamic = [e.mac for e in self.cam.entries_on_port(port) if not e.static]
        assert self.cam.flush_port(port) == len(dynamic)
        for mac in dynamic:
            assert mac not in self.cam
            del self.model[mac]

    @rule(mac=macs, dt=st.floats(min_value=0, max_value=50))
    def lookup(self, mac, dt):
        self.now += dt
        got = self.cam.lookup(mac, now=self.now)
        expected = self._live().get(mac)
        assert got == expected
        if expected is None:
            self.model.pop(mac, None)

    @invariant()
    def capacity_respected(self):
        assert len(self.cam) <= self.cam.capacity

    @invariant()
    def utilization_in_unit_interval(self):
        assert 0.0 <= self.cam.utilization() <= 1.0

    @invariant()
    def views_agree_with_lookup(self):
        entries = list(self.cam)
        assert len(self.cam) == len(entries)
        assert len({e.mac for e in entries}) == len(entries)
        for port in range(16):
            assert self.cam.entries_on_port(port) == [
                e for e in entries if e.port_index == port
            ]
        held = {e.mac for e in entries}
        for mac in held | set(self.model) | set(self.static):
            assert (mac in self.cam) == (mac in held)
        live = self._live()
        for entry in entries:
            if entry.static or entry.expires_at > self.now:
                assert live.get(entry.mac) == entry.port_index
                assert self.cam.lookup(entry.mac, self.now) == entry.port_index
            else:
                # Aged out but not yet swept: lookup would drop it.
                assert entry.mac not in live
        for mac, port in live.items():
            assert mac in held
            assert self.cam.lookup(mac, self.now) == port


TestCamMachine = CamMachine.TestCase


class ArpCacheMachine(RuleBasedStateMachine):
    """Static pins always win; dynamic entries mirror the last accepted put."""

    def __init__(self):
        super().__init__()
        self.cache = ArpCache(default_timeout=50.0)
        self.now = 0.0
        self.static: dict = {}
        self.dynamic: dict = {}  # ip -> (mac, expiry)

    @rule(ip=ips, mac=macs, dt=st.floats(min_value=0, max_value=20))
    def put(self, ip, mac, dt):
        self.now += dt
        accepted = self.cache.put(
            ip, mac, now=self.now, source=BindingSource.SOLICITED_REPLY
        )
        if ip in self.static:
            assert not accepted
        else:
            assert accepted
            self.dynamic[ip] = (mac, self.now + 50.0)

    @rule(ip=ips, mac=macs)
    def pin(self, ip, mac):
        self.cache.pin(ip, mac, now=self.now)
        self.static[ip] = mac
        self.dynamic.pop(ip, None)

    @rule(ip=ips, dt=st.floats(min_value=0, max_value=20))
    def get(self, ip, dt):
        self.now += dt
        got = self.cache.get(ip, now=self.now)
        if ip in self.static:
            assert got == self.static[ip]
        elif ip in self.dynamic:
            mac, expiry = self.dynamic[ip]
            if expiry > self.now:
                assert got == mac
            else:
                assert got is None
                del self.dynamic[ip]
        else:
            assert got is None

    @rule(ip=ips)
    def unpin(self, ip):
        self.cache.unpin(ip)
        self.static.pop(ip, None)

    @invariant()
    def history_is_time_ordered(self):
        times_seen = [c.time for c in self.cache.history]
        assert times_seen == sorted(times_seen)


TestArpCacheMachine = ArpCacheMachine.TestCase


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
                  st.integers(min_value=0, max_value=1000)),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=50)
def test_simulator_fires_in_nondecreasing_time_order(jobs):
    sim = Simulator(seed=1)
    fired = []
    for delay, payload in jobs:
        sim.schedule(delay, lambda p=payload: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(jobs)


@given(st.lists(st.floats(min_value=0.01, max_value=10, allow_nan=False),
                min_size=1, max_size=20))
@settings(max_examples=50)
def test_call_every_cancellation_is_complete(intervals):
    """No periodic task fires after its canceller runs."""
    sim = Simulator(seed=2)
    counts = [0] * len(intervals)
    cancels = []
    for i, interval in enumerate(intervals):
        cancels.append(
            sim.call_every(interval, lambda i=i: counts.__setitem__(i, counts[i] + 1))
        )
    sim.run(until=5.0)
    for cancel in cancels:
        cancel()
    snapshot = list(counts)
    sim.run(until=50.0)
    assert counts == snapshot
