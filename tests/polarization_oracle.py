"""The polarization loop that killing.extract_tensor ran before its array form,
kept as the bit-for-bit oracle of killing._polarize.

One tuple per (multi-index, slot subset) pair: each sub-multiset is
evaluated once, on a fresh count vector, at its first appearance, and each
component sums its signed terms in mask order, left to right from 0.0.
"""

import numpy as np
from itertools import combinations_with_replacement


def loop_polarization(invariant, rank, dim, pos):
    values = {}
    table = {}
    for idx in combinations_with_replacement(range(1, dim + 1), rank):
        acc = 0.0
        for mask in range(1, 2**rank):
            sub = tuple(idx[slot] for slot in range(rank) if mask >> slot & 1)
            if sub not in values:
                vec = np.zeros(dim)
                for mu in sub:
                    vec[mu - 1] += 1.0
                values[sub] = invariant(pos, vec)
            acc += (-1.0) ** (rank - len(sub)) * values[sub]
        table[idx] = acc
    return table
