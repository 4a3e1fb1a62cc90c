"""Desk-scale simulator for distributed compression over rich-owner graphs.

Three senders each hold one correlated bit string; each compresses alone by
naming a random neighbor of the string in a congestion-controlled bipartite
graph plus a residue fingerprint, and a single receiver reconstructs all
three by staged candidate enumeration.  The package provides the graph
construction and verification toolkit, the fingerprinting scheme, two
computable complexity oracles, the protocol, input scenarios, and a
reproducible experiment harness.
"""

__version__ = "0.1.0"
