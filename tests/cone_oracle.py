"""Oracles for ``dehnfill.tracks.weight_cone``.

``unreduced_cycle_masks`` is Johnson's circuit search run on the whole switch
graph, with no series reduction: the search the library ran before it
spliced out switches with one edge on a side.  ``double_description`` is an
independent computation of the extreme rays of ``{w >= 0 : switch
conditions}``: start from the nonnegative orthant and intersect with one
switch hyperplane at a time (Fukuda–Prodon 1996), keeping a combination of a
positive and a negative ray only when the two are adjacent.  It shares
nothing with the cycle enumeration in the library except the switch
equations, and its cost grows quickly with the number of rays, so tests use it
on small tracks only.
"""

from math import gcd

from dehnfill.tracks import HEAD, TAIL, _reach, _switch_ends, _switch_equations


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
