import numpy as np

from alphaleak import type_index_set


def test_type_index_set_covers_every_type_with_the_fewest_balls():
    # For every (n, m) with n <= 300: ceil((n+1)/(2m+1)) members, and every
    # type lies within m of the member `member_for` assigns to it.
    for n in range(1, 301):
        types = np.arange(n + 1)
        for m in range(n + 1):
            index_set = type_index_set(n, m)
            assert len(index_set.members) == -(-(n + 1) // (2 * m + 1))
            assigned = np.fromiter(map(index_set.member_for, range(n + 1)), int, n + 1)
            assert np.abs(assigned - types).max() <= m
