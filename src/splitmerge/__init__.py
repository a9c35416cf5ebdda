"""Monte Carlo engine and verification harness for equity markets of
competing Brownian particles with regulatory splits and random mergers.

The model: N(t) companies carry capitalizations X_i(t) > 0.  Between
events each log capitalization diffuses with a drift and volatility
assigned by rank (largest company is rank 1).  Whenever the largest
market weight reaches 1 - delta the company at the top is split in two;
an exponential clock with count-dependent rate triggers mergers of
uniformly chosen non-top pairs.  Splits and mergers conserve total
capitalization exactly.  See the README for the model assumptions and
the verification criteria.
"""

from .engine import EngineResult, EngineRun, reference_path, run_paths
from .params import ModelParams, RankTable, SplitDist
from .portfolio import PortfolioRule

__version__ = "1.0.0"

# the probes of splitmerge.bounds, loaded on first use (PEP 562): a run
# that reads none of them does not import the module
_PROBES = (
    "estimate_split_before_clock",
    "split_before_clock_bound",
    "tail_of_max_count",
)


def __getattr__(name: str):
    if name not in _PROBES:
        # `from splitmerge import bounds` then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import bounds

    return getattr(bounds, name)


__all__ = [
    "EngineResult",
    "EngineRun",
    "ModelParams",
    "PortfolioRule",
    "RankTable",
    "SplitDist",
    "estimate_split_before_clock",
    "reference_path",
    "run_paths",
    "split_before_clock_bound",
    "tail_of_max_count",
]
