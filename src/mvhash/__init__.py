"""Multi-view hashing toolkit: gated two-view fusion trained against
fixed hash centers, with bit-packed Hamming retrieval and evaluation."""

__version__ = "0.1.0"
