"""``random.Random`` oracle for ``dehnfill.ladders._draw``.

The ladder draw as it was first written, with ``randint``, ``sample`` and
``shuffle``.  The library rebuilds the same stream from ``getrandbits`` alone;
tests check that both give the same ladder and leave the generator in the same
state.
"""

from dehnfill.ladders import standard_orientations


def draw(rng, max_levels, max_rungs_per_gap, alternating):
    """The random ladder that ``rng`` gives, in the layout of ``_draw``."""
    randint = rng.randint
    n_levels = randint(2, max_levels)
    orientations = standard_orientations(n_levels) if alternating else (1,) * n_levels
    level = []
    for gap in range(n_levels - 1):
        level += [gap] * randint(0, max_rungs_per_gap)
    n_rungs = len(level)
    low = rng.sample(range(4, 16 * (n_rungs + 2), 4), n_rungs)
    rng.shuffle(low)
    high = [x + randint(-1, 1) for x in low]
    if alternating:
        cusp_low = [orientations[g] for g in level]
        cusp_high = [orientations[g + 1] for g in level]
    else:
        cusp_low = [1] * n_rungs
        cusp_high = [-1] * n_rungs
    return n_levels, orientations, level, low, high, cusp_low, cusp_high
