"""``repro.core`` — the Split-CNN transformation (the paper's §3).

Public surface:

- :mod:`.scheme` — the 1-D split mathematics (Equations 1-2, paddings).
- :mod:`.split_op` — split execution of a single 2-D window op (Eq. 3-7).
- :mod:`.stochastic` — per-minibatch random split schemes (§3.3).
- :mod:`.region` — multi-layer patch-independent execution (§3.2).
- :mod:`.transform` — automatic CNN -> Split-CNN model transformation.
"""

from .region import SplitHandler, SplitRegion, conv_count, get_handler, register_handler
from .scheme import (
    GRID_OF_SPLITS, SplitScheme, WindowSpec, compute_input_split,
    compute_paddings, input_split_bounds,
)
from .split_op import (
    SplitPlan1d, SplitPlan2d, plan_split_1d, plan_split_2d, run_split_op,
    split_conv2d,
)
from .stochastic import DEFAULT_OMEGA, StochasticSplitter, sample_split
from .transform import (
    SplitInfo, build_zoo_model, find_split_prefix, to_split_cnn,
)

__all__ = [
    "SplitScheme", "WindowSpec", "compute_input_split", "compute_paddings",
    "input_split_bounds", "GRID_OF_SPLITS",
    "SplitPlan1d", "SplitPlan2d", "plan_split_1d", "plan_split_2d",
    "run_split_op", "split_conv2d",
    "StochasticSplitter", "sample_split", "DEFAULT_OMEGA",
    "SplitRegion", "SplitHandler", "register_handler", "get_handler",
    "conv_count",
    "SplitInfo", "find_split_prefix", "to_split_cnn", "build_zoo_model",
]
