"""T1 — Table 1: the qualitative scheme-comparison matrix."""

from __future__ import annotations

from repro.core.report import table_1_criteria
from repro.schemes.registry import all_profiles


def test_table1_criteria(once, benchmark):
    artifact = once(benchmark, table_1_criteria)
    print("\n" + artifact.rendered)

    assert len(artifact.rows) == len(all_profiles())
    by_name = {row[0]: row for row in artifact.rows}

    # Shape: crypto schemes demand infra+host changes; static ARP is the
    # only DHCP-hostile prevention; monitors need neither infra nor hosts.
    sarp = by_name["S-ARP (signed ARP + AKD)"]
    assert "yes" in sarp and sarp[1] == "prevention"
    arpwatch = by_name["arpwatch (passive monitoring)"]
    assert arpwatch[3] == "no" and arpwatch[4] == "no"  # infra, host
    static = by_name["Static ARP entries"]
    assert static[6] == "no"  # DHCP-friendly column

    # Every scheme claims something for at least one variant except
    # port security, whose row is all '-' by design.
    port_sec = by_name["Switch port security"]
    assert port_sec[-4:] == ["-", "-", "-", "-"]
