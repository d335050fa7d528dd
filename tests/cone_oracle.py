"""Oracles for ``dehnfill.tracks.weight_cone`` and ``carried_slopes``.

``cycle_masks`` and ``cycle_rays`` list every extreme ray the library's
series-reduced cycle search finds, which ``weight_cone`` only counts and sums
to classes; tests hold these lists to the oracles below.

``unreduced_cycle_masks`` is Johnson's circuit search run on the whole switch
graph, with no series reduction: the search the library ran before it
spliced out switches with one edge on a side.  ``double_description`` is an
independent computation of the extreme rays of ``{w >= 0 : switch
conditions}``: start from the nonnegative orthant and intersect with one
switch hyperplane at a time (Fukuda–Prodon 1996), keeping a combination of a
positive and a negative ray only when the two are adjacent.  It shares
nothing with the cycle enumeration in the library except the switch
equations, and its cost grows quickly with the number of rays, so tests use it
on small tracks only.  ``mask_carried_slopes`` is the carried-slope arc as
the library found it before it summed classes during the search: from the
sorted list of every ray's mask, with each class summed in a second pass.
"""

from math import gcd

from dehnfill.slopes import ProjectiveSlope, SlopeInterval
from dehnfill.tracks import (
    HEAD,
    TAIL,
    CarriedSlopes,
    _cycle_sums,
    _reach,
    _switch_ends,
    _switch_equations,
)


def cycle_masks(track):
    """Every extreme ray as a branch bitmask (bit ``n - 1 - b`` for branch
    ``b``), sorted: ``_cycle_sums`` with one bit per branch as its labels."""
    n = len(track.branches)
    return sorted(_cycle_sums(track, [1 << (n - 1 - b) for b in range(n)]))


def cycle_rays(track):
    """``cycle_masks`` as 0/1 weight vectors, in lexicographic order."""
    n = len(track.branches)
    return [tuple((m >> (n - 1 - b)) & 1 for b in range(n)) for m in cycle_masks(track)]


def unreduced_cycle_masks(track):
    """Every simple directed cycle of the switch graph as a branch bitmask
    (bit ``n - 1 - b`` for branch ``b``), sorted, found by Johnson's circuit
    search (SIAM J. Comput. 1975) on the switch graph as built."""
    n = len(track.branches)
    at = {}
    for i, sw in enumerate(track.switches):
        for end in _switch_ends(sw):
            at[end] = i
    masks = []
    succ = [[] for _ in track.switches]  # per vertex: (head vertex, bit)
    pred = [[] for _ in track.switches]  # per vertex: (tail vertex, bit)
    for b in range(n):
        bit = 1 << (n - 1 - b)
        if (b, TAIL) not in at:
            masks.append(bit)  # an unattached loop is a cycle on its own
            continue
        succ[at[b, TAIL]].append((at[b, HEAD], bit))
        pred[at[b, HEAD]].append((at[b, TAIL], bit))

    for s in range(len(succ)):
        comp = _reach(succ, s) & _reach(pred, s)
        adj = {v: [(w, bit) for w, bit in succ[v] if w in comp] for v in comp}
        blocked = {s}
        held = {v: set() for v in comp}  # Johnson's B lists
        path = [s]
        prefix = [0]  # mask of the path up to each vertex
        found = [False]  # whether a cycle was closed below each vertex
        frames = [iter(adj[s])]
        while frames:
            for w, bit in frames[-1]:
                if w == s:
                    masks.append(prefix[-1] | bit)
                    found[-1] = True
                elif w not in blocked:
                    blocked.add(w)
                    path.append(w)
                    prefix.append(prefix[-1] | bit)
                    found.append(False)
                    frames.append(iter(adj[w]))
                    break
            else:
                frames.pop()
                v = path.pop()
                prefix.pop()
                if found.pop():
                    if found:
                        found[-1] = True
                    unblock = [v]
                    while unblock:
                        u = unblock.pop()
                        if u in blocked:
                            blocked.discard(u)
                            unblock.extend(held[u])
                            held[u].clear()
                else:
                    for w, _ in adj[v]:
                        held[w].add(v)
    masks.sort()
    return masks


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


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def mask_carried_slopes(track):
    """``carried_slopes`` from ``cycle_masks(track)``: every ray's
    class summed from its mask, the classes in the order of their first ray,
    and the extremes found by comparing every pair of classes."""
    rays = cycle_masks(track)
    if not rays:
        return CarriedSlopes(kind="empty")
    n = len(track.branches)
    groups = {}
    for b, br in enumerate(track.branches):
        if br.a or br.b:
            groups[br.a, br.b] = groups.get((br.a, br.b), 0) | 1 << (n - 1 - b)
    classes = {}
    for m in rays:
        a = b = 0
        for (ga, gb), g in groups.items():
            k = (m & g).bit_count()
            a += ga * k
            b += gb * k
        classes[a, b] = None
    count = len(rays)
    nonzero = [c for c in classes if c != (0, 0)]
    if not nonzero:
        return CarriedSlopes(kind="empty", extreme_classes=((0, 0),) * count, extreme_rays=count)
    extreme = tuple(sorted(nonzero))
    if all(_cross(u, v) == 0 for u in nonzero for v in nonzero):
        return CarriedSlopes(
            kind="single",
            slope=ProjectiveSlope.of(*nonzero[0]),
            extreme_classes=extreme,
            extreme_rays=count,
        )
    rights = [u for u in nonzero if all(_cross(u, v) >= 0 for v in nonzero)]
    lefts = [v for v in nonzero if all(_cross(u, v) >= 0 for u in nonzero)]
    if not rights or not lefts:
        return CarriedSlopes(kind="all", extreme_classes=extreme, extreme_rays=count)
    e_r, e_l = rights[0], lefts[0]
    end_a, end_b = ProjectiveSlope.of(*e_r), ProjectiveSlope.of(*e_l)
    if end_a == end_b:
        return CarriedSlopes(kind="all", extreme_classes=extreme, extreme_rays=count)
    witness = ProjectiveSlope.of(e_r[0] - e_l[0], e_r[1] - e_l[1])
    arc = SlopeInterval(end_a, end_b, excluded=witness, closed_a=True, closed_b=True)
    return CarriedSlopes(kind="arc", arc=arc, extreme_classes=extreme, extreme_rays=count)
