"""Rendering helpers and offline capture forensics."""

from repro.analysis.forensics import CaptureSummary, Finding, OfflineArpAnalyzer
from repro.analysis.pcap import PcapWriter, iter_pcap, iter_pcap_frames
from repro.analysis.stats import Summary, replicate, summarize
from repro.analysis.tables import render_series, render_table, to_csv

__all__ = [
    "render_table",
    "to_csv",
    "render_series",
    "OfflineArpAnalyzer",
    "CaptureSummary",
    "Finding",
    "PcapWriter",
    "iter_pcap",
    "iter_pcap_frames",
    "Summary",
    "replicate",
    "summarize",
]
