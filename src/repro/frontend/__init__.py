"""Model-to-IR front end (paper Section II-B).

``compile_diagram`` turns a validated dataflow diagram into a single IR entry
function whose body is a sequence of per-block code regions, each labelled
with its originating block so the HTG extractor can name tasks after it.
"""

from repro.frontend.lowering import ScilabLoweringError, lower_script
from repro.frontend.codegen import (
    INTERFACE_SIGNAL_PREFIXES,
    CompiledModel,
    compile_diagram,
    is_interface_signal,
    protected_signal_names,
)

__all__ = [
    "ScilabLoweringError",
    "lower_script",
    "CompiledModel",
    "compile_diagram",
    "INTERFACE_SIGNAL_PREFIXES",
    "is_interface_signal",
    "protected_signal_names",
]
