"""Reference implementations used to cross-check the fast paths.

Everything here is recomputed from scratch in Fraction arithmetic: segment
meets by direct linear solves, contact classification by sorting the four
outgoing rays around the shared point, and region membership by flood fill
over a conservative raster. Nothing is shared with the package beyond the
plain Point/Curve containers, so agreement is meaningful.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cmp_to_key

from contactgeom import Point

F = Fraction


def _d(p, q):
    return (q.x - p.x, q.y - p.y)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def seg_meet(a, b, u, v):
    """("none"|"point"|"overlap", payload) for closed segments ab and uv."""
    r = _d(a, b)
    s = _d(u, v)
    den = _cross(r, s)
    au = _d(a, u)
    if den != 0:
        t = F(_cross(au, s), den)
        w = F(_cross(au, r), den)
        if 0 <= t <= 1 and 0 <= w <= 1:
            return "point", Point(a.x + t * r[0], a.y + t * r[1])
        return "none", None
    if _cross(au, r) != 0:
        return "none", None
    # collinear: compare parameter intervals along r
    rr = r[0] * r[0] + r[1] * r[1]
    if rr == 0:
        return ("point", a) if (a.x, a.y) == (u.x, u.y) else ("none", None)
    t0 = F(au[0] * r[0] + au[1] * r[1], rr)
    t1 = t0 + F(s[0] * r[0] + s[1] * r[1], rr)
    lo, hi = min(t0, t1), max(t0, t1)
    lo, hi = max(lo, F(0)), min(hi, F(1))
    if lo > hi:
        return "none", None
    if lo == hi:
        return "point", Point(a.x + lo * r[0], a.y + lo * r[1])
    return "overlap", (lo, hi)


def _quad(d):
    x, y = d
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


def _ray_cmp(u, v):
    qu, qv = _quad(u), _quad(v)
    if qu != qv:
        return -1 if qu < qv else 1
    c = _cross(u, v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def rays_at(curve, p):
    """Outgoing direction vectors of the curve at p, or None if p is not on
    the curve. A single ray means p is a free endpoint."""
    pts = curve.points
    n = len(pts)
    hits = []                      # vertex index or (seg index, interior)
    for k, q in enumerate(pts):
        if q == p:
            hits.append(("v", k))
    segs = list(curve.segments())
    for idx, (sid, a, b) in enumerate(segs):
        kind, _ = seg_meet(a, b, p, p)
        if kind == "point" and p != a and p != b:
            hits.append(("s", idx))
    if not hits:
        return None
    if len(hits) > 1:
        raise AssertionError(f"curve {curve.id} passes {p} twice")
    tag, k = hits[0]
    if tag == "s":
        _, a, b = segs[k]
        return [_d(p, a), _d(p, b)]
    out = []
    if curve.closed:
        out.append(_d(p, pts[(k - 1) % n]))
        out.append(_d(p, pts[(k + 1) % n]))
    else:
        if k > 0:
            out.append(_d(p, pts[k - 1]))
        if k < n - 1:
            out.append(_d(p, pts[k + 1]))
    return out


def classify_contact(c1, c2, p):
    r1 = rays_at(c1, p)
    r2 = rays_at(c2, p)
    assert r1 is not None and r2 is not None
    if len(r1) < 2 or len(r2) < 2:
        return "endpoint"
    rays = [(d, "A") for d in r1] + [(d, "B") for d in r2]
    dirs = [d for d, _ in rays]
    for i in range(4):
        for j in range(i + 1, 4):
            if _cross(dirs[i], dirs[j]) == 0 and (
                    dirs[i][0] * dirs[j][0] + dirs[i][1] * dirs[j][1]) > 0:
                return "degenerate"
    rays.sort(key=cmp_to_key(lambda s, t: _ray_cmp(s[0], t[0])))
    labels = "".join(lbl for _, lbl in rays)
    return "tangency" if labels in ("AABB", "ABBA", "BBAA", "BAAB") \
        else "crossing"


def _bbox(curve):
    xs = [p.x for p in curve.points]
    ys = [p.y for p in curve.points]
    return min(xs), min(ys), max(xs), max(ys)


def _boxes_meet(b1, b2):
    return not (b1[2] < b2[0] or b2[2] < b1[0]
                or b1[3] < b2[1] or b2[3] < b1[1])


def pair_contacts(c1, c2):
    """Sorted ((x, y), kind) contact list of two curves, or the string
    "overlap" when they share a collinear stretch."""
    pts = set()
    for _, a, b in c1.segments():
        for _, u, v in c2.segments():
            kind, data = seg_meet(a, b, u, v)
            if kind == "overlap":
                return "overlap"
            if kind == "point":
                pts.add(data)
    out = []
    for p in pts:
        out.append(((p.x, p.y), classify_contact(c1, c2, p)))
    return sorted(out)


def family_contacts(family):
    """{(id_i, id_j): contact list} over every bbox-adjacent curve pair."""
    curves = family.curves
    boxes = [_bbox(c) for c in curves]
    table = {}
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if not _boxes_meet(boxes[i], boxes[j]):
                continue
            got = pair_contacts(curves[i], curves[j])
            if got:
                table[(curves[i].id, curves[j].id)] = got
    return table


# ---------------------------------------------------------------- raster

class Raster:
    """Conservative raster of a curve set: a cell is a wall when a segment
    meets its closed rectangle, so any walk through non-wall cells stays
    inside one face of the arrangement."""

    def __init__(self, curves, k=24):
        xs = [p.x for c in curves for p in c.points]
        ys = [p.y for c in curves for p in c.points]
        pad = max(max(xs) - min(xs), max(ys) - min(ys), F(1)) / 8
        x0, x1 = min(xs) - pad, max(xs) + pad
        y0, y1 = min(ys) - pad, max(ys) + pad
        self.k = k
        self.x0, self.dx = x0, (x1 - x0) / k
        self.y0, self.dy = y0, (y1 - y0) / k
        self.wall = [[False] * k for _ in range(k)]
        for c in curves:
            for _, a, b in c.segments():
                self._mark(a, b)
        self.region = [[-1] * k for _ in range(k)]
        rid = 0
        for i in range(k):
            for j in range(k):
                if self.wall[i][j] or self.region[i][j] >= 0:
                    continue
                self._flood(i, j, rid)
                rid += 1
        self.n_regions = rid

    def _index(self, v, v0, dv):
        i = int((v - v0) / dv)
        return min(max(i, 0), self.k - 1)

    def _mark(self, a, b):
        i0 = self._index(min(a.x, b.x), self.x0, self.dx)
        i1 = self._index(max(a.x, b.x), self.x0, self.dx)
        j0 = self._index(min(a.y, b.y), self.y0, self.dy)
        j1 = self._index(max(a.y, b.y), self.y0, self.dy)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                if not self.wall[i][j] and self._hits_cell(a, b, i, j):
                    self.wall[i][j] = True

    def _corners(self, i, j):
        cx0 = self.x0 + i * self.dx
        cy0 = self.y0 + j * self.dy
        return cx0, cy0, cx0 + self.dx, cy0 + self.dy

    def _hits_cell(self, a, b, i, j):
        cx0, cy0, cx1, cy1 = self._corners(i, j)
        if cx0 <= a.x <= cx1 and cy0 <= a.y <= cy1:
            return True
        if cx0 <= b.x <= cx1 and cy0 <= b.y <= cy1:
            return True
        corners = (Point(cx0, cy0), Point(cx1, cy0),
                   Point(cx1, cy1), Point(cx0, cy1))
        for t in range(4):
            kind, _ = seg_meet(a, b, corners[t], corners[(t + 1) % 4])
            if kind != "none":
                return True
        return False

    def _flood(self, i, j, rid):
        q = deque([(i, j)])
        self.region[i][j] = rid
        while q:
            ci, cj = q.popleft()
            for ni, nj in ((ci - 1, cj), (ci + 1, cj),
                           (ci, cj - 1), (ci, cj + 1)):
                if 0 <= ni < self.k and 0 <= nj < self.k \
                        and not self.wall[ni][nj] \
                        and self.region[ni][nj] < 0:
                    self.region[ni][nj] = rid
                    q.append((ni, nj))

    def probes(self, limit):
        """Up to `limit` (cell center, region id) pairs spread over the
        open cells."""
        out = []
        for i in range(self.k):
            for j in range(self.k):
                if self.wall[i][j]:
                    continue
                cx0, cy0, cx1, cy1 = self._corners(i, j)
                out.append((Point((cx0 + cx1) / 2, (cy0 + cy1) / 2),
                            self.region[i][j]))
        if len(out) <= limit:
            return out
        step = len(out) / limit
        return [out[int(t * step)] for t in range(limit)]


# ------------------------------------------------------- planar separator

def _sep_components(adj, removed):
    seen = set(removed)
    out = []
    for root in sorted(adj):
        if root in seen:
            continue
        comp = {root}
        seen.add(root)
        stack = [root]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        out.append(frozenset(comp))
    return out


def _bfs_levels(adj, root):
    levels = [[root]]
    seen = {root}
    while True:
        nxt = []
        for u in levels[-1]:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if not nxt:
            return levels
        levels.append(sorted(nxt))


def _fundamental_cycles(adj, root, cap=200):
    parent = {root: None}
    order = [root]
    for u in order:
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
    depth = {}
    for v in parent:
        d, u = 0, v
        while parent[u] is not None:
            u = parent[u]
            d += 1
        depth[v] = d
    tree_edges = {tuple(sorted((v, p)))
                  for v, p in parent.items() if p is not None}
    cycles = []
    for u in sorted(parent):
        for v in adj[u]:
            if v <= u or tuple(sorted((u, v))) in tree_edges:
                continue
            a, b, cyc = u, v, {u, v}
            while depth[a] > depth[b]:
                a = parent[a]
                cyc.add(a)
            while depth[b] > depth[a]:
                b = parent[b]
                cyc.add(b)
            while a != b:
                a, b = parent[a], parent[b]
                cyc.add(a)
                cyc.add(b)
            cycles.append(frozenset(cyc))
            if len(cycles) >= cap:
                return cycles
    return cycles


def planar_separator(g):
    """(separator, components, c_measured) of a WeightedPlanarGraph, searched
    on the original vertex labels with Fraction weights: candidates are BFS
    levels, the first 200 fundamental cycles and the whole of each component,
    the first 1024 articulation points (networkx) and a greedy peel; the
    smallest balanced one wins, ties by heaviest component, then sorted."""
    import math

    import networkx

    adj = {v: [] for v in g.vertices}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}
    nv = len(g.vertices)
    if nv <= 1:
        return frozenset(), tuple(_sep_components(adj, ())), 0.0
    wmap = dict(g.weight_items)
    bound = F(2, 3) * sum(wmap.values(), F(0))

    def weight(vs):
        return sum((wmap[v] for v in vs), F(0))

    candidates = [frozenset()]
    for comp in _sep_components(adj, ()):
        root = min(comp)
        candidates.extend(frozenset(lev) for lev in _bfs_levels(adj, root))
        candidates.extend(_fundamental_cycles(adj, root))
        candidates.append(comp)
    nxg = networkx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    cuts = sorted(networkx.articulation_points(nxg))
    candidates.extend(frozenset((v,)) for v in cuts[:1024])
    greedy = set()
    while True:
        heavy = [c for c in _sep_components(adj, greedy) if weight(c) > bound]
        if not heavy:
            break
        worst = max(heavy, key=weight)
        greedy.add(max(worst, key=lambda v: (wmap[v], v)))
    candidates.append(frozenset(greedy))
    best = None
    for cand in candidates:
        comps = _sep_components(adj, cand)
        if any(weight(c) > bound for c in comps):
            continue
        key = (len(cand), max((weight(c) for c in comps), default=F(0)),
               sorted(cand))
        if best is None or key < best[0]:
            best = (key, cand, tuple(comps))
    _, sep, comps = best
    return sep, comps, len(sep) / math.sqrt(nv)
