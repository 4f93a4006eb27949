"""Overlapping subdomain construction for nonlocal problems.

A partition of the interior cells into rectangles is grown into an
overlapping family: every pair of elements whose interaction balls can
touch must end up together in at least one subdomain, so the global
bilinear form can be split into subdomain forms, each element pair
weighted by the reciprocal of the number of subdomains holding both.
Each rectangle grows by the distance of every element in a window of
cells around it to its nearest owned barycenter, read off the rectangle
without a search.  Membership is stored once, as a packed element x
subdomain bit table set window by window; every overlap count is the
popcount of a membership row or of the AND of two rows.
Coverage is checked on the pairs the assembler weights, per class of
``geometry.interacting_classes``; the check and the pair counts read a
class's pairs off cell planes by ``geometry.class_grids``, so no list of
pairs is formed.  The module also builds the interface constraint matrix
and its multiplicity scaling used by the FETI solver, from one
node-sorted table of all interface copies and one scaled block per
multiplicity, and the rigid modes of a node set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import class_grids, interacting_classes
from .mesh import INTERIOR, Mesh


class SubdivisionError(RuntimeError):
    """Raised when a constructed subdivision violates its coverage or
    rank contracts."""


# ---------------------------------------------------------------------------
# Partition and nonlocal extension


def partition_rectangles(mesh: Mesh, k1: int, k2: int) -> np.ndarray:
    """Split the interior cells into k1 x k2 rectangles.

    Rectangle boundaries are snapped to the nearest grid line.  Returns
    the (k1 k2, 4) half-open cell rectangles ``(x0, x1, y0, y1)`` in the
    mesh's cell coordinates, numbered x fastest.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be at least 1")
    # for k <= n every rounded cut interval holds at least one cell
    for name, k in (("k1", k1), ("k2", k2)):
        if k > mesh.n:
            raise ValueError(
                f"{name}={k} exceeds n={mesh.n}: a rectangle would hold "
                f"no element")
    n = mesh.n
    # snapped cut positions, shifted past the collar
    collar = round(mesh.delta * n)
    cuts1 = collar + np.round(n * np.arange(k1 + 1) / k1).astype(np.int64)
    cuts2 = collar + np.round(n * np.arange(k2 + 1) / k2).astype(np.int64)
    i2, i1 = np.divmod(np.arange(k1 * k2), k1)
    return np.column_stack([cuts1[i1], cuts1[i1 + 1], cuts2[i2],
                            cuts2[i2 + 1]])


@dataclass
class Subdivision:
    """Overlapping subdomain family over a mesh.

    Subdomain k holds its rectangle of ``partition_rectangles``, the
    half-horizon overlap ring around it and the collar elements attached
    to them.  The unconstrained nodes seen by subdomain k split into
    ``inner_nodes[k]`` (multiplicity 1) and ``interface_nodes[k]``
    (shared with another subdomain); ``constrained_nodes[k]`` carry
    Dirichlet-type data.

    ``membership`` is the (n_elements, ceil(K / 8)) uint8 table of the
    element x subdomain relation: bit ``k % 8`` of byte ``k // 8`` is set
    when subdomain k holds the element.  Subdomain k holds elements only
    in the cells of ``windows[k] = (x0, x1, y0, y1)``, so what is read
    of one subdomain is read over its window.
    """

    mesh: Mesh
    inner_nodes: list[np.ndarray]
    interface_nodes: list[np.ndarray]
    constrained_nodes: list[np.ndarray]
    floating: np.ndarray
    membership: np.ndarray = field(repr=False)
    windows: np.ndarray = field(repr=False)

    @property
    def K(self) -> int:
        return len(self.inner_nodes)

    def _held(self, k: int) -> np.ndarray:
        """(cy - y0, cx - x0, type) mask of the elements k holds over its
        window."""
        return (_window(self.mesh, self.membership, self.windows[k])
                [..., k >> 3] & np.uint8(1 << (k & 7))) != 0

    def cells(self, k: int) -> tuple:
        """Half-open cell rectangle ``(x0, x1, y0, y1)`` bounding the
        elements subdomain k holds."""
        held = self._held(k)
        x0, _, y0, _ = self.windows[k]
        ys = np.flatnonzero(held.any(axis=(1, 2)))
        xs = np.flatnonzero(held.any(axis=(0, 2)))
        return x0 + xs[0], x0 + xs[-1] + 1, y0 + ys[0], y0 + ys[-1] + 1

    def pair_counts(self, k: int, classes, cells,
                    nodes: np.ndarray) -> np.ndarray:
        """(class, cy - y0, cx - x0) grid of the pairs of ``classes``
        (dx, dy, t1, t2) anchored in the cell window
        ``cells = (x0, x1, y0, y1)``: element 2 (cy N + cx) + t1 with
        element 2 ((cy + dy) N + cx + dx) + t2.  Each holds the number of
        subdomains holding both elements where subdomain k holds both
        and one of the two has a vertex among ``nodes``; 0 elsewhere, also
        where the second element lies outside the window.  Unsigned, of
        the smallest type that holds K.

        It is read by ``class_grids`` off the window's cell planes of the
        membership bytes and of the kept-vertex mask, so no grid of
        element ids is formed.
        """
        mesh = self.mesh
        nb = self.membership.shape[1]
        kept = np.zeros(mesh.n_vertices, dtype=bool)
        kept[nodes] = True
        near = kept[_window(mesh, mesh.elements, cells)].any(axis=-1)
        planes = _cell_planes(_window(mesh, self.membership, cells), near)
        bit = np.uint8(1 << (k & 7))
        x0, x1, y0, y1 = cells
        out = np.empty((len(classes), y1 - y0, x1 - x0),
                       np.min_scalar_type(self.K))
        for c, first, second in class_grids(planes, classes):
            both = first[:, :nb] & second[:, :nb]  # (class, byte, cy, cx)
            hit = (both[:, k >> 3] & bit) != 0
            hit &= (first[:, nb] | second[:, nb]) != 0
            counts = np.bitwise_count(both)
            n = out[c]
            n[...] = counts[:, 0]
            for b in range(1, nb):
                n += counts[:, b]
            n[~hit] = 0
        return out

    def element_weights(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The interior elements k holds and their reciprocal
        multiplicities."""
        mesh = self.mesh
        win = self.windows[k]
        x0, _, y0, _ = win
        cy, cx, t = np.nonzero(
            self._held(k) & (_window(mesh, mesh.element_region, win)
                             == INTERIOR))
        els = 2 * ((cy + y0) * mesh.cells_per_side + cx + x0) + t
        return els, 1.0 / _overlap(self.membership[els])


def _window(mesh: Mesh, a: np.ndarray, cells) -> np.ndarray:
    """View (cy - y0, cx - x0, type, ...) of the per-element array ``a``
    over the cell window ``cells = (x0, x1, y0, y1)``."""
    N = mesh.cells_per_side
    x0, x1, y0, y1 = cells
    return a.reshape(N, N, 2, *a.shape[1:])[y0:y1, x0:x1]


def _cell_planes(*windows: np.ndarray) -> np.ndarray:
    """(type, column, cy - y0, cx - x0) cell planes of the ``_window``
    views of one window, each with no or one column axis, stacked in
    order."""
    return np.concatenate([w.reshape(w.shape[:3] + (-1,)) for w in windows],
                          axis=-1).transpose(2, 3, 0, 1)


def _overlap(rows: np.ndarray) -> np.ndarray:
    """Number of subdomains set in each packed membership row."""
    counts = np.bitwise_count(rows)
    # summed byte column by byte column: a reduction over the few
    # columns of a row is several times slower
    total = counts[:, 0].astype(np.intp)
    for b in range(1, counts.shape[1]):
        total += counts[:, b]
    return total


def _reach(delta: float, ball_norm: str) -> float:
    """Largest Euclidean distance between interacting points.

    Interaction balls in the max norm reach sqrt(2) times farther in
    Euclidean distance than their radius."""
    return delta * np.sqrt(2.0) if ball_norm == "linf" else delta


def extend_nonlocal(mesh: Mesh, rects: np.ndarray, *,
                    ball_norm: str) -> Subdivision:
    """Grow the cell rectangles ``rects`` of ``partition_rectangles``
    into an overlapping subdivision.

    Subdomain k takes the interior elements within half the mesh's
    horizon (plus a mesh-size safety margin) of the barycenters in its
    rectangle and the collar elements within a full horizon, both
    measured for the interaction ball of ``ball_norm``.  The nearest
    owned barycenter of each triangle type is the one of the element's
    cell clamped into the rectangle: the squared distance is a sum of
    one term per axis.  Only the rectangle's window, grown by the larger
    radius, is measured.  The resulting family is verified to contain
    every interacting element pair in at least one common subdomain.
    """
    K = len(rects)
    N = mesh.cells_per_side
    interior = mesh.element_region == INTERIOR
    # Safety margins: distances are measured between barycenters, so the
    # half-horizon criterion needs slack of about one element diameter:
    # two interacting barycenters lie within reach + 2 sqrt(5) / 3 cells
    # (about reach + h) of each other; their midpoint belongs to some
    # owned rectangle, whose nearest owned barycenter is at most one
    # further diameter away.  The margins are a construction rule, not a
    # proof: verify_coverage checks the result on the assembler's pairs.
    reach = _reach(mesh.delta, ball_norm)
    r_ext = 0.5 * (reach + mesh.h) + mesh.h + 1e-12
    r_col = reach + mesh.h + 1e-12
    radius = np.where(interior, r_ext, r_col)
    # an element in a cell more than `grow` cells beyond the rectangle
    # along an axis lies at least grow + 2/3 cells, farther than either
    # radius, from every owned barycenter along that axis
    grow = int(np.ceil(max(r_ext, r_col) * mesh.n))

    # Membership bits are set window by window; a node belongs to k when
    # it is a vertex of an element k holds.
    membership = np.zeros((mesh.n_elements, -(-K // 8)), np.uint8)
    bary = mesh.barycenters.reshape(N, N, 2, 2)
    windows = np.clip(rects + np.array([-grow, grow, -grow, grow]), 0, N)
    nrows = []
    for k, ((x0, x1, y0, y1), win) in enumerate(zip(rects, windows)):
        ys = np.clip(np.arange(win[2], win[3]), y0, y1 - 1)
        xs = np.clip(np.arange(win[0], win[1]), x0, x1 - 1)
        # (cy, cx, type, owned type, xy)
        diff = (_window(mesh, mesh.barycenters, win)[:, :, :, None]
                - bary[ys[:, None], xs][:, :, None])
        d = np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])
        held = d.min(axis=-1) <= _window(mesh, radius, win)
        _window(mesh, membership, win)[..., k >> 3][held] |= np.uint8(
            1 << (k & 7))
        nrows.append(np.unique(_window(mesh, mesh.elements, win)[held]))
    zeta = np.bincount(np.concatenate(nrows), minlength=mesh.n_vertices)

    inner_nodes, interface_nodes, constrained = [], [], []
    unconstrained = mesh.node_region == INTERIOR
    for k in range(K):
        nodes = nrows[k]
        unk = nodes[unconstrained[nodes]]
        inner_nodes.append(unk[zeta[unk] == 1])
        interface_nodes.append(unk[zeta[unk] > 1])
        constrained.append(nodes[~unconstrained[nodes]])

    # A subdomain floats only when it sees no constrained data at all:
    # even without attached collar elements, extension elements that
    # touch constrained nodes pin the local operator.
    floating = np.array([len(c) == 0 for c in constrained])

    sub = Subdivision(
        mesh=mesh, inner_nodes=inner_nodes, interface_nodes=interface_nodes,
        constrained_nodes=constrained, floating=floating,
        membership=membership, windows=windows,
    )
    verify_coverage(mesh, sub, ball_norm=ball_norm)
    return sub


def build_subdivision(mesh: Mesh, k1: int, k2: int, *,
                      ball_norm: str) -> Subdivision:
    """Partition into k1 x k2 rectangles and extend nonlocally."""
    rects = partition_rectangles(mesh, k1, k2)
    return extend_nonlocal(mesh, rects, ball_norm=ball_norm)


def verify_coverage(mesh: Mesh, sub: Subdivision, *, ball_norm: str) -> None:
    """Assert that every element pair the assembler weights for a kernel
    on the ``ball_norm`` ball (every pair of an interacting class with
    an interior element, the element self-pairs included) lies in a
    common subdomain: the AND of its two membership rows is nonzero.
    Raises SubdivisionError on the first violation, self-pairs first.

    The pairs are read off the mesh's cell planes of the membership
    bytes and the interior mask.  A class reaches at most delta n cells,
    the collar's width, so a pair with an interior element lies in the
    mesh.
    """
    N = mesh.cells_per_side
    interior = mesh.element_region == INTERIOR
    planes = _cell_planes(*(_window(mesh, a, (0, N, 0, N))
                            for a in (sub.membership, interior)))
    # the self-pair classes (0, 0, t, t) first, so that an element no
    # subdomain holds is named rather than a pair it belongs to
    classes = sorted(interacting_classes(round(mesh.delta * mesh.n),
                                         ball_norm == "linf"),
                     key=lambda key: key[:2] != (0, 0) or key[2] != key[3])
    for c, first, second in class_grids(planes, classes):
        bad = (((first[:, -1] | second[:, -1]) != 0)
               & ~(first[:, :-1] & second[:, :-1]).any(axis=1))
        if bad.any():
            i, cy, cx = np.unravel_index(np.argmax(bad), bad.shape)
            key = classes[c][i]
            dx, dy, t1, t2 = key
            e1 = 2 * (cy * N + cx) + t1
            e2 = 2 * ((cy + dy) * N + cx + dx) + t2
            if e1 == e2:
                raise SubdivisionError(f"element {e1} belongs to no subdomain")
            raise SubdivisionError(
                f"interacting element pair ({e1}, {e2}) of class {key} is "
                f"covered by no subdomain")


# ---------------------------------------------------------------------------
# Constraints, scaling, rigid modes


@dataclass
class ConstraintSet:
    """Interface continuity constraints and their scaled variants.

    ``B`` acts on the concatenation of per-subdomain interface dofs
    (offsets in ``offsets``); every row links the copy of one physical
    dof held by the lowest-index subdomain to exactly one other copy.
    ``B_D = (B D^-1 B^T)^-1 B D^-1`` with D the diagonal multiplicity
    scaling, the number of copies of each dof.
    """

    B: sp.csr_matrix
    B_D: sp.csr_matrix
    offsets: np.ndarray


def _scaled_block(node: int, m: int) -> np.ndarray:
    """Rows of B_D for one component of a node held by m subdomains,
    ``(B_n D_n^-1 B_n^T)^-1 B_n D_n^-1`` with D_n = m I and B_n the chain
    from the first copy to each other one; errors name ``node``."""
    if m < 2:
        raise SubdivisionError(
            f"interface node {node} has multiplicity {m}"
        )
    zinv = 1.0 / float(m)
    Bn = np.zeros((m - 1, m))
    Bn[:, 0] = 1.0
    Bn[np.arange(m - 1), np.arange(1, m)] = -1.0
    # zinv * (I + ones), whose inverse is (1/zinv) * (I - ones/m)
    blk = zinv * (Bn @ Bn.T)
    try:
        L = np.linalg.cholesky(blk)
    except np.linalg.LinAlgError as exc:
        raise SubdivisionError(
            f"constraint block for node {node} is rank deficient"
        ) from exc
    if np.min(np.diag(L)) ** 2 <= 1e-12:
        raise SubdivisionError(
            f"constraint block for node {node} has a near-zero pivot"
        )
    return np.linalg.solve(blk, zinv * Bn)


def build_constraints(sub: Subdivision,
                      dof_multiplicity: int = 1) -> ConstraintSet:
    """Build B and B_D over the concatenated interface dofs.

    For a physical node held by m subdomains the chain anchored at the
    lowest subdomain index contributes m - 1 rows per dof component,
    ordered by node, then component, then copy.  B D^-1 B^T is block
    diagonal with one block per node and component that depends only on
    m, so B_D is read off one exactly factorized block per multiplicity.
    """
    c = dof_multiplicity
    sizes = np.array([len(g) for g in sub.interface_nodes])
    offsets = np.concatenate([[0], np.cumsum(c * sizes)])
    total = int(offsets[-1])
    copies = np.concatenate(sub.interface_nodes)

    # Copy i of the concatenated interface lists holds dofs c i .. c i + c-1.
    # Sorted stably by node, the copies of a node follow in subdomain
    # order, the anchor first.
    order = np.argsort(copies, kind="stable")
    node = copies[order]
    start = np.flatnonzero(np.diff(node, prepend=-1))
    mult = np.diff(start, append=len(node))
    # each block is checked at the first node with its multiplicity, in
    # node order, so an error names the lowest failing node
    first = np.sort(np.unique(mult, return_index=True)[1])
    blocks = {int(mult[g]): _scaled_block(int(node[start[g]]), int(mult[g]))
              for g in first}

    group = np.repeat(np.arange(len(start)), mult)
    rank = np.arange(len(node)) - start[group]  # 0 on the anchor
    m = mult[group]
    comp = np.arange(c)
    # the copy of rank j >= 1 is linked to the anchor in row
    # row0 + component (m - 1) + j - 1, row0 the first row of its node
    row0 = c * (np.cumsum(mult - 1) - (mult - 1))
    row = (row0[group] + rank - 1)[:, None] + (m - 1)[:, None] * comp
    dof = c * order[:, None] + comp
    link = np.flatnonzero(rank > 0)
    M_C = len(link) * c
    B = sp.csr_matrix(
        (np.repeat([1.0, -1.0], M_C),
         (np.tile(row[link].ravel(), 2),
          np.concatenate([dof[start[group[link]]].ravel(),
                          dof[link].ravel()]))),
        shape=(M_C, total))

    # the B_D rows of a link copy hold block[rank of the link - 1,
    # rank of the copy] at every copy of its node
    ml = m[link]
    row_copy = np.repeat(link, ml)
    col_copy = (start[group[row_copy]] + np.arange(len(row_copy))
                - np.repeat(np.cumsum(ml) - ml, ml))
    vals = np.empty(len(row_copy))
    for size, blk in blocks.items():
        at = m[row_copy] == size
        vals[at] = blk[rank[row_copy[at]] - 1, rank[col_copy[at]]]
    B_D = sp.csr_matrix(
        (np.repeat(vals, c), (row[row_copy].ravel(), dof[col_copy].ravel())),
        shape=(M_C, total))
    return ConstraintSet(B=B, B_D=B_D, offsets=offsets)


def rigid_modes(xy: np.ndarray, c: int) -> np.ndarray:
    """Orthonormal rigid modes of the nodes at ``xy`` with ``c``
    interleaved components: one constant for scalar problems; two
    translations and one rotation about the nodes' centroid for vector
    problems."""
    if c == 1:
        block = np.ones((len(xy), 1))
    else:
        ctr = xy.mean(axis=0)
        t1 = np.zeros((len(xy), 2))
        t1[:, 0] = 1.0
        t2 = np.zeros((len(xy), 2))
        t2[:, 1] = 1.0
        rot = np.column_stack([-(xy[:, 1] - ctr[1]), xy[:, 0] - ctr[0]])
        block = np.stack([t1, t2, rot], axis=2).reshape(len(xy) * 2, 3)
    q, _ = np.linalg.qr(block)
    return q


def dump_subdivision(sub: Subdivision) -> str:
    """CSV dump: per-element owner list and multiplicity.

    Columns: element, barycenter_x, barycenter_y, zeta, subdomains
    (semicolon-separated ids).
    """
    mesh = sub.mesh
    bary = mesh.barycenters
    held = np.unpackbits(sub.membership, axis=1, count=sub.K,
                         bitorder="little")
    lines = ["element,x,y,zeta,subdomains"]
    for e in range(mesh.n_elements):
        ks = np.flatnonzero(held[e])
        lines.append(
            f"{e},{bary[e, 0]:.17g},{bary[e, 1]:.17g},{len(ks)},"
            + ";".join(str(int(k)) for k in ks)
        )
    return "\n".join(lines) + "\n"
