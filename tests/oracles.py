"""Reference implementations used to cross-check the fast paths.

Everything here is recomputed from scratch in Fraction arithmetic: segment
meets by direct linear solves, contact classification by sorting the four
outgoing rays around the shared point, and region membership by flood fill
over a conservative raster. Nothing is shared with the package beyond the
plain Point/Curve containers, so agreement is meaningful. Two helpers feed
the planarity certificate instead: `rotation` asks networkx for an
embedding, and `is_plane` reads the package's verdict on one.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cmp_to_key

from contactgeom import Point
from contactgeom.errors import PreconditionError
from contactgeom.separator import weighted_graph

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
    if rr == 0:  # ab is the point a: it meets uv iff it lies on uv
        on = (_cross(au, s) == 0 and min(u.x, v.x) <= a.x <= max(u.x, v.x)
              and min(u.y, v.y) <= a.y <= max(u.y, v.y))
        return ("point", a) if on else ("none", None)
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


def left_of_wedge(u, v, w):
    """Is direction w strictly on the left of the oriented kink (u, v), u
    incoming and v outgoing? A straight angle is one half-plane test, a
    convex left kink an intersection of two, a reflex one a union."""
    cu, cv, turn = _cross(u, w), _cross(v, w), _cross(u, v)
    if turn > 0:
        return cu > 0 and cv > 0
    if turn < 0:
        return cu > 0 or cv > 0
    return cu > 0


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
    wmap = g.weights
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


def rotation(vertices, edges):
    """A rotation system of the graph on these vertices and edges (loops
    dropped), as separator.weighted_graph reads it: networkx's planar
    embedding, counterclockwise, when networkx finds the graph planar;
    else each vertex's neighbours in sorted order."""
    import networkx

    g = networkx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from((u, v) for u, v in edges if u != v)
    ok, embedding = networkx.check_planarity(g)
    if ok:
        return {v: list(embedding.neighbors_cw_order(v))[::-1] for v in g}
    return {v: sorted(g[v]) for v in g}


def is_plane(rotation_system):
    """Whether separator.weighted_graph certifies the rotation system; any
    refusal but the plane certificate's fails the caller."""
    try:
        weighted_graph(rotation_system)
    except PreconditionError as e:
        assert "not plane" in str(e), e
        return False
    return True


def tuple_arrangement_graph(family, fi):
    """The arrangement graph with ("a", curve id) and ("p", x, y) vertex
    labels, as (vertices, edges, weights): each curve's chain is its anchor,
    then its catalogue contacts by chain parameter; every curve weighs 1/n,
    shared evenly by its chain. Reads only the catalogue's plain data."""
    along = {c.id: [] for c in family.curves}
    for (a, b), incs in fi.pairs.items():
        for inc in incs:
            along[a].append((inc.s_a, b, inc.point))
            along[b].append((inc.s_b, a, inc.point))
    weights, edges = {}, set()
    for c in family.curves:
        chain = [("a", c.id)] + [("p", p.x, p.y)
                                 for _, _, p in sorted(along[c.id])]
        for v in chain:
            weights[v] = weights.get(v, F(0)) + F(1, family.n) / len(chain)
        ring = list(zip(chain, chain[1:]))
        if c.closed and len(chain) > 1:
            ring.append((chain[-1], chain[0]))
        edges |= {tuple(sorted(e)) for e in ring if e[0] != e[1]}
    return set(weights), edges, weights


def tuple_string_separator(family, fi):
    """(separator, components, c_measured) of the string separator lifted
    from planar_separator above on tuple_arrangement_graph: a curve joins
    when its anchor or a contact point on it does, then members the 2n/3
    balance does not need are dropped in id order."""
    import math
    from types import SimpleNamespace

    verts, edges, weights = tuple_arrangement_graph(family, fi)
    g = SimpleNamespace(vertices=tuple(sorted(verts)), edges=edges,
                        weights=weights)
    sep = set()
    for v in planar_separator(g)[0]:
        if v[0] == "a":
            sep.add(v[1])
        else:
            sep |= {cid for pair, incs in fi.pairs.items() for inc in incs
                    if (inc.point.x, inc.point.y) == v[1:] for cid in pair}
    adj = {c.id: [] for c in family.curves}
    for (a, b), incs in fi.pairs.items():
        if incs:
            adj[a].append(b)
            adj[b].append(a)
    balanced = lambda removed: all(3 * len(c) <= 2 * family.n
                                   for c in _sep_components(adj, removed))
    for cid in sorted(sep):
        if balanced(sep - {cid}):
            sep.discard(cid)
    return (frozenset(sep), tuple(_sep_components(adj, sep)),
            len(sep) / math.sqrt(sum(map(len, fi.pairs.values()))))


# ------------------------------------------------------------ arrangement

def _orient(o, a, b):
    c = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
    return (c > 0) - (c < 0)


def on_segment(p, a, b):
    """p on the closed segment ab, in Fraction arithmetic."""
    return (_orient(a, b, p) == 0
            and min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def winding_parity(p, polygon):
    """Even-odd test on Fraction points: True strictly inside, False on the
    boundary or outside."""
    n = len(polygon)
    inside = False
    for i in range(n):
        a, b = polygon[i], polygon[(i + 1) % n]
        if on_segment(p, a, b):
            return False
        if (a.y > p.y) != (b.y > p.y):
            dy = b.y - a.y
            if ((p.y - a.y) * (b.x - a.x) - (p.x - a.x) * dy) * dy > 0:
                inside = not inside
    return inside


def _area2(polygon):
    n = len(polygon)
    return sum((polygon[i].x * polygon[(i + 1) % n].y
                - polygon[(i + 1) % n].x * polygon[i].y
                for i in range(n)), F(0))


def _angle_key(dx, dy):
    if dx > 0 and dy >= 0:
        return (0, F(dy) / dx)
    if dx <= 0 and dy > 0:
        return (1, F(-dx) / dy)
    if dx < 0 and dy <= 0:
        return (2, F(dy) / dx)
    return (3, F(-dx) / dy)


def _mid(a, b):
    return Point(F(a.x + b.x, 2), F(a.y + b.y, 2))


def _chain_point(c, s):
    n = c.n_segments
    if c.closed:
        s = s % n
    elif s == n:
        return c.points[-1]
    k = int(s)
    a, b = c.segment(k)
    t = s - k
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def _portion(c, s0, s1):
    pts = [_chain_point(c, s0)]
    k = int(s0) + 1
    while k < s1:
        pts.append(c.points[k % len(c.points)])
        k += 1
    pts.append(_chain_point(c, s1))
    return tuple(pts)


def reduced_pieces(family, fi):
    """The pieces of degree reduction as (points, closed, parent id), in
    order, from the catalogue's chain parameters alone. With d = X // n, a
    curve with more than d contacts is cut at the thirds of the gap after
    every d-th contact and, when closed, of the gap across its seam; each
    piece runs from one gap's second cut to the next gap's first, read by
    `_portion`. None when d is 0."""
    along = {c.id: [] for c in family.curves}
    for (a, b), incs in fi.pairs.items():
        for inc in incs:
            along[a].append(inc.s_a)
            along[b].append(inc.s_b)
    d = sum(map(len, fi.pairs.values())) // len(family.curves)
    if d == 0:
        return None
    out = []
    for c in family.curves:
        ps, n = sorted(along[c.id]), c.n_segments
        if len(ps) <= d:
            out.append((c.points, c.closed, c.id))
            continue
        gaps = [(ps[k - 1], ps[k]) for k in range(d, len(ps), d)]
        if c.closed:
            gaps.append((ps[-1], ps[0] + n))
        cuts = [(u + (v - u) / 3, u + 2 * (v - u) / 3) for u, v in gaps]
        if c.closed:
            # the last piece crosses the seam; it starts below n
            spans = [(cuts[k][1], cuts[k + 1][0])
                     for k in range(len(cuts) - 1)]
            lo, hi = cuts[-1][1], cuts[0][0] + n
            spans.append((lo - n, hi - n) if lo >= n else (lo, hi))
        else:
            spans = list(zip([F(0)] + [c2 for _, c2 in cuts],
                             [c1 for c1, _ in cuts] + [F(n)]))
        out += [(_portion(c, lo, hi), False, c.id) for lo, hi in spans]
    return out


def _on_curve(c, p):
    return any(on_segment(p, a, b) for _, a, b in c.segments())


class ArrangementRef:
    """The arrangement of `curves` whose contacts are the catalogue `fi`,
    assembled in Fraction arithmetic as the package did before its integer
    view: vertices (points and CCW rotation of half-edge ids), half-edges
    (origin, target, curve, geometry), and faces (cycles, outer cycle,
    depth, interior point), with the same ids and orders as
    `arrangement._assemble`."""

    def __init__(self, curves, fi):
        self.curves = curves = tuple(curves)
        got_of = {}
        for c in curves:
            got = {}
            for inc in fi.on_curve(c.id):
                got[inc.s_on(c.id)] = inc.point
            if not c.closed:
                got.setdefault(F(0), c.points[0])
                got.setdefault(F(c.n_segments), c.points[-1])
            elif not got:
                got[F(0)] = c.points[0]
            got_of[c.id] = got
        self.points = sorted({p for got in got_of.values()
                              for p in got.values()}, key=lambda p: (p.x, p.y))
        vid = {p: i for i, p in enumerate(self.points)}
        edges = []  # (origin, target, curve, geometry)
        for c in curves:
            got = got_of[c.id]
            ps = sorted(got)
            n = c.n_segments
            if c.closed:
                spans = [(ps[i], ps[i + 1] if i + 1 < len(ps) else ps[0] + n)
                         for i in range(len(ps))]
            else:
                spans = list(zip(ps, ps[1:]))
            for s0, s1 in spans:
                geom = _portion(c, s0, s1)
                end = s1 - n if c.closed and s1 - n in got else s1
                a, b = vid[got[s0]], vid[got[end]]
                edges.append((a, b, c.id, geom))
                edges.append((b, a, c.id, tuple(reversed(geom))))
        self.edges = edges
        out = [[] for _ in self.points]
        for h, (a, _, _, _) in enumerate(edges):
            out[a].append(h)

        def angle(h):
            g = edges[h][3]
            return _angle_key(g[1].x - g[0].x, g[1].y - g[0].y)

        self.rotation = [tuple(sorted(hs, key=angle)) for hs in out]
        nxt = []
        for h, (_, b, _, _) in enumerate(edges):
            rot = self.rotation[b]
            nxt.append(rot[rot.index(h ^ 1) - 1])
        cycles, seen = [], [False] * len(edges)
        for h in range(len(edges)):
            cyc = []
            while not seen[h]:
                seen[h] = True
                cyc.append(h)
                h = nxt[h]
            if cyc:
                cycles.append(tuple(cyc))
        poly = {cyc: tuple(p for h in cyc for p in edges[h][3][:-1])
                for cyc in cycles}
        self.polygons = poly
        area = {cyc: _area2(poly[cyc]) for cyc in cycles}
        outers = [cyc for cyc in cycles if area[cyc] > 0]
        holes = {o: [] for o in outers}
        orphan = []
        for cyc in cycles:
            if area[cyc] > 0:
                continue
            q = _mid(poly[cyc][0], poly[cyc][1 % len(poly[cyc])])
            best = None
            for o in outers:
                if winding_parity(q, poly[o]) and (
                        best is None or area[o] < area[best]):
                    best = o
            (orphan if best is None else holes[best]).append(cyc)
        self.faces = [(tuple(sorted(orphan, key=min)), None, 0, None)]
        for o in sorted(outers, key=min):
            hs = sorted(holes[o], key=min)
            g = edges[o[0]][3]
            m = _mid(g[0], g[1])
            nx, ny = g[0].y - g[1].y, g[1].x - g[0].x
            eps = F(1, 2)
            while True:
                q = Point(m.x + eps * nx, m.y + eps * ny)
                if (not any(_on_curve(c, q) for c in curves)
                        and winding_parity(q, poly[o])
                        and not any(winding_parity(q, poly[h]) for h in hs)):
                    break
                eps /= 2
            depth = 1 + sum(1 for o2 in outers
                            if o2 is not o and winding_parity(q, poly[o2]))
            self.faces.append(((o,) + tuple(hs), 0, depth, q))

    def locate(self, p):
        """Face id containing p, or None when p lies on a curve."""
        if any(_on_curve(c, p) for c in self.curves):
            return None
        for fid, (cycles, outer, _, _) in enumerate(self.faces):
            if outer is None:
                continue
            if winding_parity(p, self.polygons[cycles[0]]) and not any(
                    winding_parity(p, self.polygons[h]) for h in cycles[1:]):
                return fid
        return 0


# ------------------------------------------------------ ground-pair samples

def monte_carlo_ground(family, trials, seed):
    """The sampling report of `verifier.monte_carlo_ground`, drawn with the
    same random stream but computed eagerly: the touching set is scanned
    for A', B' and T' on every draw, and every drawn ground pair's
    arrangement is built, so delta defaults to its unbounded face."""
    import random
    from itertools import combinations

    from contactgeom.arrangement import locate_cell, pair_arrangement
    from contactgeom.incidence import compute_incidences

    fi = compute_incidences(family)
    touching = fi.touching_pairs()
    pairs = list(combinations(sorted(c.id for c in family), 2))
    rng = random.Random(seed)
    seen = {"t_star": [], "t_star_in_delta": [], "t_prime": []}
    for _ in range(trials):
        g1, g2 = pairs[rng.randrange(len(pairs))]
        arr = pair_arrangement(family, g1, g2)
        nbrs = {g: {b if a == g else a for a, b in touching if g in (a, b)}
                for g in (g1, g2)}
        a_prime, b_prime = nbrs[g1] - {g2}, nbrs[g2] - {g1}
        shared = sorted(a_prime & b_prime)
        to_a = {c for c in shared if rng.randrange(2) == 0}
        side_a = (a_prime - b_prime) | to_a
        side_b = (b_prime - a_prime) | (set(shared) - to_a)
        t_prime = [(a, b) for a, b in touching
                   if (a in a_prime and b in b_prime)
                   or (a in b_prime and b in a_prime)]
        counts = {}
        star = 0
        for a, b in t_prime:
            if (a in side_a and b in side_b) or (a in side_b and b in side_a):
                star += 1
                f = locate_cell(arr, fi.between(a, b)[0].point)
                counts[f] = counts.get(f, 0) + 1
        seen["t_star"].append(star)
        seen["t_star_in_delta"].append(max(counts.values(), default=0))
        seen["t_prime"].append(len(t_prime))

    def stat(xs):
        mean = F(sum(xs), len(xs))
        return {"mean": float(mean), "mean_exact": str(mean),
                "min": min(xs), "max": max(xs)}

    return {"seed": seed, "trials": trials,
            **{name: stat(xs) for name, xs in seen.items()}}


# ---------------------------------------------------------------- charging
# The imaginary-closure search as the verifier ran it on Fraction points.
# Segment meets come from seg_meet, one segment pair at a time; a pair is
# skipped only when the closed boxes of its two curves or two segments are
# disjoint, which no meeting survives, and a route segment that several
# routes share is checked once, as its verdict is the same in each. The
# face context is read as plain data.

def segment_kind(a, b, c, d):
    """("none", None), ("proper", P), ("endpoint", P) or ("overlap",
    (P, Q)) for closed segments ab and cd: a single meeting point is
    proper only when it is an endpoint of neither segment."""
    kind, data = seg_meet(a, b, c, d)
    if kind == "none":
        return "none", None
    if kind == "overlap":
        r = _d(a, b)
        return "overlap", tuple(Point(a.x + s * r[0], a.y + s * r[1])
                                for s in data)
    return ("endpoint" if data in (a, b, c, d) else "proper"), data


def _ring(c):
    return c.points + c.points[:1] if c.closed else c.points


def _seg_box(a, b):
    return min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y)


class _Boxed:
    """A polyline with the closed box of the whole and of each segment."""

    def __init__(self, pts):
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        self.box = min(xs), min(ys), max(xs), max(ys)
        self.segs = [(a, b, _seg_box(a, b)) for a, b in zip(pts, pts[1:])]

    def meetings(self, a, b):
        """segment_kind of segment ab with each segment of the polyline."""
        box = _seg_box(a, b)
        if not _boxes_meet(box, self.box):
            return
        for c, d, seg_box in self.segs:
            if _boxes_meet(box, seg_box):
                yield segment_kind(a, b, c, d)


def _segment_hits(a, b, boxed):
    """Proper crossings of segment ab with a curve; None on dirty contact."""
    out = []
    for kind, data in boxed.meetings(a, b):
        if kind == "proper":
            out.append(data)
        elif kind != "none":
            return None
    return out


def route_candidates(ctx, q1, q2):
    """The via-point menu, in order, as Fraction points."""
    yield ()
    f = ctx.arrangement.faces[ctx.face]
    pull = f.interior if f.interior is not None else _mid(q1, q2)
    anchors = [pull, _mid(q1, q2)]
    scale = ctx.arrangement.scale
    for label in ctx.walk:
        (ax, ay), (bx, by) = ctx.arrangement.half_edges[label][:2]
        anchors.append(Point(F(ax + bx, 2 * scale), F(ay + by, 2 * scale)))
    for shrink in (F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 64)):
        for w in anchors:
            yield (Point(w.x + (pull.x - w.x) * (1 - shrink),
                         w.y + (pull.y - w.y) * (1 - shrink)),)
    for shrink in (F(1, 2), F(1, 8)):
        for i in range(len(anchors)):
            for j in range(i + 1, len(anchors)):
                blend = [Point(w.x + (pull.x - w.x) * (1 - shrink),
                               w.y + (pull.y - w.y) * (1 - shrink))
                         for w in (anchors[i], anchors[j])]
                yield tuple(blend)
                yield tuple(reversed(blend))
    if f.interior is None:
        xs = [q1.x, q2.x]
        ys = [q1.y, q2.y]
        for c in ctx.arrangement.curves:
            for p in c.points:
                xs.append(p.x)
                ys.append(p.y)
        margin = max(max(xs) - min(xs), max(ys) - min(ys), F(1))
        for level in (min(ys) - margin, max(ys) + margin):
            yield (Point(q1.x, level),)
            yield (Point(q2.x, level),)
            yield (Point(q1.x, level), Point(q2.x, level))
        for level in (min(xs) - margin, max(xs) + margin):
            yield (Point(level, q1.y),)
            yield (Point(level, q2.y),)
            yield (Point(level, q1.y), Point(level, q2.y))


def _simple_ring(pts):
    """No zero-length segment and no collinear vertex triple, cyclically."""
    n = len(pts)
    for i in range(n):
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        if a == b or _orient(a, b, c) == 0:
            return False
    return True


def close_arc(ctx, lam, other, forbidden):
    """(closed points, imaginary interval) joining lam's free ends inside
    the face; (lam's points, None) for a closed arc, None when no route of
    the menu works."""
    g = lam.geometry
    if g.closed:
        return g.points, None
    q_end, q_start = g.points[-1], g.points[0]
    walls = [_Boxed(_ring(c)) for c in ctx.arrangement.curves]
    own = _Boxed(g.points)
    crossed = _Boxed(_ring(other))

    checked = {}  # routes share segments; each one is checked once

    def segment_check(a, b):
        if any(_segment_hits(a, b, mu) != [] for mu in walls):
            return None
        hits = _segment_hits(a, b, crossed)
        if hits is None:
            return None
        if any(kind != "none"
               and not (kind == "endpoint" and data in (q_end, q_start))
               for kind, data in own.meetings(a, b)):
            return None
        return hits

    def crossings_with_other(path):
        out = []
        for a, b in zip(path, path[1:]):
            if (a, b) not in checked:
                checked[a, b] = segment_check(a, b)
            if checked[a, b] is None:
                return None
            out.extend(checked[a, b])
        return out

    for via in route_candidates(ctx, q_end, q_start):
        path = (q_end,) + tuple(via) + (q_start,)
        if any(path[i] == path[i + 1] for i in range(len(path) - 1)):
            continue
        crossings = crossings_with_other(path)
        if crossings is None or any(p in forbidden for p in crossings):
            continue
        points = g.points + tuple(via)
        if not _simple_ring(points):
            continue
        return points, (F(g.n_segments), F(len(points)))
    return None


def _all_meetings(g1, g2):
    boxed = _Boxed(g2)
    for a, b in zip(g1, g1[1:]):
        yield from boxed.meetings(a, b)


def meeting_points(c1, c2):
    """Every point where curves c1 and c2 meet, overlap ends included."""
    out = set()
    for kind, data in _all_meetings(_ring(c1), _ring(c2)):
        if kind == "overlap":
            out.update(data)
        elif kind != "none":
            out.add(data)
    return out


def piece_intersections(c1, lo1, hi1, c2, lo2, hi2):
    """Sorted meeting points interior to two chain-parameter portions."""
    poly1 = _portion(c1, lo1, hi1)
    poly2 = _portion(c2, lo2, hi2)
    pts = {data for kind, data in _all_meetings(poly1, poly2)
           if kind in ("proper", "endpoint")}
    return sorted(pts - {poly1[0], poly1[-1], poly2[0], poly2[-1]})
