"""A dumb repeater hub: every frame out every other port.

Hubs exist in the evaluation for two reasons: they are the "monitor sees
everything" baseline placement for detectors, and they are what a switch
effectively degrades into under MAC flooding.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import TopologyError
from repro.l2.device import Device, Port
from repro.sim.simulator import Simulator
from repro.sim.trace import Direction, TraceRecorder

__all__ = ["Hub"]


class Hub(Device):
    """A multiport repeater; no addressing, no learning."""

    def __init__(self, sim: Simulator, name: str, num_ports: int) -> None:
        super().__init__(sim, name)
        if num_ports < 2:
            raise TopologyError("a hub needs at least two ports")
        for _ in range(num_ports):
            self.add_port()
        #: Ingress capture, or ``None`` (nothing is recorded).
        self.recorder: Optional[TraceRecorder] = None
        self.repeated_frames = 0

    def on_frame_batch(self, port: Port, datas: Sequence[bytes]) -> None:
        recorder = self.recorder
        for data in datas:
            if recorder is not None:
                recorder.record(self.sim.now, port.name, Direction.RX, data)
            self.repeated_frames += 1
            for other in self.ports:
                if other.index != port.index:
                    other.transmit_batch((data,))
