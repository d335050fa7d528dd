"""Double-description oracle for ``dehnfill.tracks.weight_cone``.

An independent computation of the extreme rays of ``{w >= 0 : switch
conditions}``: start from the nonnegative orthant and intersect with one
switch hyperplane at a time (Fukuda–Prodon 1996), keeping a combination of a
positive and a negative ray only when the two are adjacent.  It shares
nothing with the cycle enumeration in the library except the switch
equations, and its cost grows quickly with the number of rays, so tests use it
on small tracks only.
"""

from math import gcd

from dehnfill.tracks import _switch_equations


def _normalize_ray(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    return tuple(x // g for x in vec)


def double_description(track):
    """Extreme rays as primitive integer vectors in lexicographic order."""
    n = len(track.branches)
    # Start from the nonnegative orthant; masks track which of the n
    # inequalities w_i >= 0 are active (zero) on each ray.
    rays = []
    for i in range(n):
        vec = tuple(1 if j == i else 0 for j in range(n))
        rays.append(vec)

    def zero_mask(vec):
        m = 0
        for i, x in enumerate(vec):
            if x == 0:
                m |= 1 << i
        return m

    for row in _switch_equations(track):
        pos, neg, zero = [], [], []
        for vec in rays:
            val = sum(r * x for r, x in zip(row, vec))
            (pos if val > 0 else neg if val < 0 else zero).append((vec, val))
        new_rays = [vec for vec, _ in zero]
        masks = {vec: zero_mask(vec) for vec in rays}
        for pvec, pval in pos:
            for nvec, nval in neg:
                meet = masks[pvec] & masks[nvec]
                adjacent = True
                for other in rays:
                    if other is pvec or other is nvec:
                        continue
                    if masks[other] & meet == meet:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(
                    pval * nx - nval * px for px, nx in zip(pvec, nvec)
                )
                norm = _normalize_ray(combo)
                if norm is not None:
                    new_rays.append(norm)
        rays = sorted(set(new_rays))
    return rays
