"""The 5G RAN substrate.

The data path mirrors the split the paper targets (O-RAN 7.2x):

* :class:`~repro.ran.core.FiveGCore` -- the 5GC / UPF that forwards downlink
  IP packets to the gNB serving each UE.
* :class:`~repro.ran.cu.CentralUnitUserPlane` -- the CU-UP holding per-UE
  SDAP and PDCP state, the point where an in-RAN marker (L4Span, TC-RAN, ...)
  is attached.
* :class:`~repro.ran.du.DistributedUnit` -- the DU holding one RLC entity per
  (UE, DRB) and the MAC scheduler that grants transmission opportunities every
  slot.
* :class:`~repro.ran.f1u.F1UInterface` -- the CU<->DU interface carrying
  downlink SDUs one way and *downlink data delivery status* feedback the
  other way.
* :class:`~repro.ran.ue.UeContext` -- the UE: channel model, DRB
  configuration, the client-side transport receivers, and the uplink path
  back through the gNB.
* :class:`~repro.ran.gnb.GNodeB` -- glue that assembles all of the above.
* :class:`~repro.ran.mobility.MobilityManager` -- inter-cell handover:
  detach/attach execution, RLC forwarding, receiver state transfer and the
  SNR-triggered mobility monitor.
"""

from repro.ran.identifiers import DrbConfig, DrbId, QosFlowId, RlcMode, UeId
from repro.ran.cell import CellConfig
from repro.ran.f1u import DeliveryStatus, F1UInterface
from repro.ran.rlc import RlcEntity, RlcSdu
from repro.ran.pdcp import PdcpEntity
from repro.ran.sdap import SdapEntity
from repro.ran.phy import AirInterface, AirInterfaceConfig
from repro.ran.mac import MacScheduler
from repro.ran.scheduling import SchedulerPolicy
from repro.ran.ue import UeConfig, UeContext
from repro.ran.marker import NoopMarker, RanMarker
from repro.ran.mobility import (HandoverTransfer, MobilityManager,
                                MobilityTopology, Transition)
from repro.ran.core import FiveGCore
from repro.ran.cu import CentralUnitUserPlane
from repro.ran.du import DistributedUnit
from repro.ran.gnb import GNodeB

__all__ = [
    "DrbConfig",
    "DrbId",
    "QosFlowId",
    "RlcMode",
    "UeId",
    "CellConfig",
    "DeliveryStatus",
    "F1UInterface",
    "RlcEntity",
    "RlcSdu",
    "PdcpEntity",
    "SdapEntity",
    "AirInterface",
    "AirInterfaceConfig",
    "MacScheduler",
    "SchedulerPolicy",
    "UeConfig",
    "UeContext",
    "NoopMarker",
    "RanMarker",
    "HandoverTransfer",
    "MobilityManager",
    "MobilityTopology",
    "Transition",
    "FiveGCore",
    "CentralUnitUserPlane",
    "DistributedUnit",
    "GNodeB",
]
