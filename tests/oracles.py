"""Dense oracles for the framelet transforms, read off the partition tree.

Nothing here runs the cascade. `leaves_under` walks `children`, and
`atom_vector` builds an atom's leaf values from exact Fraction measures, the
way atoms once stored them: every leaf under a child carries that child's
height, sqrt((|sibling| / |parent|) / |child|), negative on the second child.
"""

import math
from fractions import Fraction as F

import numpy as np


def exact_measure(block):
    return math.prod((s.hi - s.lo for s in block.sides), start=F(1))


def leaves_under(part, b):
    """The leaves under block b (b itself for a leaf), children in order, depth first."""
    kids = part.children[b]
    if not kids:
        return (b,)
    return tuple(leaf for c in kids for leaf in leaves_under(part, c))


def scaling_vector(part):
    """The normalized root indicator."""
    height = 1.0 / math.sqrt(float(exact_measure(part.blocks[part.root])))
    return np.full(len(part.leaf_ids), height)


def atom_vector(a):
    """Leaf values of atom a, from its key and exact measures; exact before the sqrt."""
    part = a.partition
    kids = part.children[a.parent]
    b1, b2 = kids[a.l1 - 1], kids[a.l2 - 1]
    pm = exact_measure(part.blocks[a.parent])
    m1, m2 = exact_measure(part.blocks[b1]), exact_measure(part.blocks[b2])
    vec = np.zeros(len(part.leaf_ids))
    vec[[part.leaf_index[leaf] for leaf in leaves_under(part, b1)]] = math.sqrt(float((m2 / pm) / m1))
    vec[[part.leaf_index[leaf] for leaf in leaves_under(part, b2)]] = -math.sqrt(float((m1 / pm) / m2))
    return vec


def dense_matrix(system):
    """The scaling row, then one atom_vector row per atom."""
    return np.vstack([scaling_vector(system.partition)] + [atom_vector(a) for a in system.atoms])
