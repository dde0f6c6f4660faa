"""Shannon capacity of SISO links through lossless two-port networks."""

from .channels import (
    ChannelModel,
    LcParallel,
    ReactanceSample,
    TLineOpenEnds,
    TLineShortedTapped,
    eval_reactances,
    poles_in_interval,
)
from .config import RunConfig, default_config, load_config, parse_config, serialize_config
from .linkmodel import (
    Band,
    OutputPsd,
    ReceiverParams,
    alpha,
    beta,
    capacity_lower_bound,
    capacity_upper_bound,
    output_psd,
    ratio_alpha_beta,
    transfer_magnitude,
)
from .waterfill import (
    FrequencyGrid,
    SweepPoint,
    SweepResult,
    WaterfillSolution,
    build_grid,
    solve_for_mu,
    solve_for_power,
    sweep,
)

__version__ = "0.1.0"
