r"""otmlab: a desk-scale laboratory for privacy amplification of one-time memories.

The package implements and numerically verifies the reduction from "leaky"
string one-time memories to "ideal" single-bit one-time memories:

- exact r-wise independent single-bit hash families over GF(2^l)  (`hashfam`)
- dense POVM elements, separable and 2-local outcomes,
  delta-non-negligibility  (`quantum`)
- closed-form concentration bounds and Monte Carlo certification  (`tails`)
- smoothed min-entropy, water-filling, entropy splitting  (`entropy`)
- epsilon-nets over measurement outcomes with cardinality accounting  (`nets`)
- the OTM wrapper, security functionals Q_c/R_c, the l1 security metric,
  continuity checks, and the full bound chain  (`otm`)
- a batch experiment runner  (`cli`)
"""

__version__ = "0.1.0"
