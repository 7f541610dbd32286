"""Machine-code postprocessors: the peephole pass that recovers most
KEEP_LIVE overhead (paper, "A Postprocessor") and the opt-in
escape-analysis allocation-sinking pass."""

from .liveness import Liveness
from .peephole import PeepholeStats, postprocess, postprocess_function
from .sink import SinkStats, sink_function, sink_program

__all__ = ["Liveness", "PeepholeStats", "postprocess", "postprocess_function",
           "SinkStats", "sink_function", "sink_program"]
