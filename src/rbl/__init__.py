"""Robust bundle pricing under mean/MAD ambiguity.

A numerical laboratory for a seller pricing a bundle of m items when each
item value is known only through its mean and mean absolute deviation. The
package builds the worst-case two-point value distributions, convolves them
exactly, solves both orders of the pricing game, certifies tail bounds, and
checks the large-m limits, with an exact small-m menu oracle as ground truth.
"""

from .ambiguity import MeanMadSpec, make_two_point
from .opt_oracle import opt_deterministic
from .solvers import maximin_bundling_value
from .sum_law import product_sum

__version__ = "0.1.0"
