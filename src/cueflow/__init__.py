"""cueflow: directed-information cue detection between interacting agents.

The package measures transfer entropy between two agents' time series with
conditional-Gaussian predictive models, turns the local TE signal into
discrete cue events through an adaptive threshold detector, and aggregates
events across trials into timing histograms, location grids, and group
statistics.

Import names from the submodules (``cueflow.pipeline``, ...): the package
module loads nothing, so ``cueflow.cli`` can pin BLAS threads before numpy.
"""

__version__ = "0.1.0"
