"""Fault-tolerant Steane-code encode/decode analysis toolkit.

Import the names from their submodules, for example ``from steanesim import
faults`` or ``from steanesim.threshold import optimize_x``: the package
itself loads none of them, so a process pays only for the layers it uses.
"""

__version__ = "0.1.0"
