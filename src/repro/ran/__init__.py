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
