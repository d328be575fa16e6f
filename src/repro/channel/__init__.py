"""Radio channel models.

The RAN scheduler asks a per-UE channel model for the current link quality
(CQI / spectral efficiency); everything L4Span observes about the wireless
medium flows through that single number and its variation over time.  The
package provides:

* :class:`~repro.channel.static.StaticChannel` -- constant quality with
  optional small noise ("Static" in the paper's figures).
* :class:`~repro.channel.fading.FadingChannel` -- a Gauss-Markov SNR process
  whose correlation matches the coherence time of a moving UE (pedestrian and
  vehicular conditions; "Mobile" combines the two).
* :class:`~repro.channel.trace.TraceChannel` -- plays back a recorded CQI/MCS
  trace.
* :mod:`repro.channel.mcs` -- CQI/MCS tables mapping SNR to spectral
  efficiency.
* :mod:`repro.channel.coherence` -- the "channel stable period" analysis of
  Fig. 18 (periods over which the MCS index deviates by at most 5).
"""
