"""Rendering helpers, pcap I/O and multi-seed statistics."""

from repro.analysis.pcap import PcapWriter, iter_pcap, iter_pcap_frames
from repro.analysis.stats import Summary, replicate, summarize
from repro.analysis.tables import render_series, render_table, to_csv

__all__ = [
    "render_table",
    "to_csv",
    "render_series",
    "PcapWriter",
    "iter_pcap",
    "iter_pcap_frames",
    "Summary",
    "replicate",
    "summarize",
]
