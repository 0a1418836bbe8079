"""Relay-assisted cooperative Alamouti/OSTBC downlink: analysis + simulation.

The package quantifies how the bit error rate of a distributed
space-time-coded downlink (one base-station antenna group, one relay
antenna group, virtual array at the receiver) reacts to SNR imbalance
between the two links and to channel estimation errors, through a
closed-form error expression and a reproducible Monte Carlo simulator.
"""

__version__ = "0.1.0"
