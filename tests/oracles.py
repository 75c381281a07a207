"""Independent reference implementations used as test oracles.

Most of this is written in plain scalar style, one cell or face at a
time, deliberately separate from the package's vectorized code paths;
face_duals is the face formulas vectorized over faces with np.cross,
separate from the package's sparse face map; incidence_face_dual_map
builds that map the plain way, every per-incidence entry array in full
before the zeros go, and incidence_tpsa_matrix the operator on it by
the kron formula.  product_rescale forms the rescaled
operator as two sparse products with a diagonal matrix, and
coo_strength_graph and coo_aggregation_graph the AMG strength graph and
its lonely-node fallback through COO round trips and a CSR sum; the
package makes the same CSR arrays, which assert_same_csr compares, from
the stored entries in one pass each.
local_face_operator and face_duals reuse only the package's per-face
stencil coefficients.
multigrid_solve iterates the package's V-cycle as a
stand-alone solver by defect correction, a second solve path the
multigrid tests check.
greedy_aggregate is the greedy aggregation written with one numpy
call per node, the reference the package's list-based loops must match
exactly; its last pass, which makes a singleton of any node the first
two left unassigned, has no counterpart in the package.
reference_vcycle is the V-cycle with every sweep's residual formed
explicitly, the reference the package's zero-start pre-sweep must
match bit for bit.
sequential_march is the time march with one mechanics solve per
step, the reference for the package's march and its start rule, which
it writes out on its own (with predict=False, the previous rule: no
predicted correction), and coupled_probe the
convergence probe run through a whole coupled engine, the reference for
the study's elastic-only probe.
monolithic_march solves flow and mechanics of each step as one system,
the limit the splitting schemes converge to.  read_csv reads back
what the package's CSV writer wrote (np.load reads the .npy source
histories) and read_vtk its legacy binary VTK files; assert_same_history
and assert_same_final check a written history and final state against
the run's arrays bit for bit.  CountingOperator stands in for a
sparse matrix and counts the products taken with it.  material builds
the one validated material record every operator test assembles from,
plane_barrier_faces finds a barrier plane by comparing face centres with
its position, the rule the package replaced by reading cell layers,
and serialize_config writes a parsed case back as the canonical SI-unit
text the round-trip tests parse again.
"""

import csv
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags, hstack, identity, kron, vstack
from scipy.sparse.linalg import splu

from biotfv.app.config import _SECTIONS, _UNITS, _WELL
from biotfv.coupling import BiotState, CoupledSystem
from biotfv.errors import GeometryError, SolverError
from biotfv.linsolve.blocks import split_fields
from biotfv.materials import PoroelasticProperties
from biotfv.tpfa import assemble_flow
from biotfv.tpsa import assemble_rhs, assemble_tpsa, stencil_arrays


def material(
    mesh, mu=1.0, lam=1.0, alpha=0.0, c0=0.0, perm=1.0, fluid_viscosity=1.0, **kw
):
    """The validated material record on mesh, without Biot coupling
    (alpha = 0) unless asked; flow-only tests hand `FlowSystem` its c0."""
    return PoroelasticProperties(
        mu=mu, lam=lam, alpha=alpha, c0=c0, perm=perm,
        fluid_viscosity=fluid_viscosity, **kw,
    ).validate(mesh)


def read_csv(path):
    """Header and rows of a CSV file the package wrote, as strings."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=",")
        header = next(reader)
        return header, [row for row in reader]


# the keyword line of each cell field in a VTK file, and its BiotState field
VTK_FIELDS = (
    ("SCALARS pressure_deviation double 1", "dp"),
    ("VECTORS displacement double", "u"),
    ("VECTORS rotation double", "r"),
    ("SCALARS effective_pressure double 1", "p_hat"),
)


def read_vtk(path):
    """Leading lines and sections of a legacy binary VTK file the package wrote.

    Returns the four lines before the first section (version, title,
    BINARY, dataset) and a dict, in file order, from each section's keyword
    line to its data read with np.frombuffer, shaped as written: big-endian
    >f8 for POINTS and the cell fields, >i4 for CELLS and CELL_TYPES.
    CELL_DATA holds no data of its own and maps to None.  Every line and
    every data block must end in a newline.
    """
    data = Path(path).read_bytes()
    at = 0

    def take(size):
        nonlocal at
        chunk, at = data[at : at + size], at + size
        assert len(chunk) == size, "the file ends inside a section"
        return chunk

    def line():
        return take(data.index(b"\n", at) + 1 - at)[:-1].decode("utf-8")

    head = [line() for _ in range(4)]
    sections, n_cells = {}, None
    while at < len(data):
        keyword = line()
        word, *rest = keyword.split(" ")
        if word == "CELL_DATA":
            sections[keyword], n_cells = None, int(rest[0])
            continue
        if word == "POINTS":
            dtype, shape = ">f8", (int(rest[0]), 3)
        elif word == "CELLS":
            dtype, shape = ">i4", (int(rest[0]), int(rest[1]) // int(rest[0]))
        elif word == "CELL_TYPES":
            dtype, shape = ">i4", (int(rest[0]),)
        elif word == "SCALARS":
            assert line() == "LOOKUP_TABLE default"
            dtype, shape = ">f8", (n_cells,)
        else:
            assert word == "VECTORS", f"unknown section {keyword!r}"
            dtype, shape = ">f8", (n_cells, 3)
        size = np.dtype(dtype).itemsize * int(np.prod(shape))
        sections[keyword] = np.frombuffer(take(size), dtype=dtype).reshape(shape)
        assert take(1) == b"\n", f"no newline after the {word} data"
    return head, sections


def assert_same_history(path, psi, cfg):
    """The .npy file holds psi as finite float64 (n_steps, n_cells), bit for bit."""
    written = np.load(path)
    n_cells = cfg.mesh.nx * cfg.mesh.ny * cfg.mesh.nz
    assert written.dtype == np.float64
    assert written.shape == psi.shape == (cfg.time.n_steps, n_cells)
    assert np.isfinite(written).all()
    assert np.array_equal(written.view(np.int64), psi.view(np.int64))


def assert_same_final(path, final):
    """The VTK file holds the four fields of final, finite and bit for bit."""
    _, sections = read_vtk(path)
    for keyword, attr in VTK_FIELDS:
        written, values = sections[keyword].astype(np.float64), getattr(final, attr)
        assert written.shape == values.shape
        assert np.isfinite(written).all()
        assert np.array_equal(written.view(np.int64), values.view(np.int64))


def orientation(mesh, cell, face):
    """eps_ik = n_i . n_k for an adjacent (cell, face) pair."""
    i, j = mesh.face_cells[face]
    if cell == i:
        return 1
    if cell == j:
        return -1
    raise GeometryError(f"cell {cell} is not adjacent to face {face}")


def cell_faces(mesh, cell):
    """All (face, eps_ik) incidences of one cell."""
    out = [(int(k), 1) for k in np.flatnonzero(mesh.face_cells[:, 0] == cell)]
    out += [(int(k), -1) for k in np.flatnonzero(mesh.face_cells[:, 1] == cell)]
    return out


def normal_distance(mesh, cell, face):
    """delta_ik = eps_ik n_k . (x_k - x_i), the two-point stencil distance."""
    eps = orientation(mesh, cell, face)
    d = eps * float(
        np.dot(mesh.face_normals[face], mesh.face_centers[face] - mesh.cell_centers[cell])
    )
    if d <= 0:
        raise GeometryError(f"degenerate geometry: delta <= 0 for cell {cell}, face {face}")
    return d


def hand_skew(n):
    n1, n2, n3 = n
    return np.array([[0.0, -n3, n2], [n3, 0.0, -n1], [-n2, n1, 0.0]])


def two_cell_faces():
    """Face list of the 2x1x1 unit-cube mesh, split at x = 0.5.

    Each entry: (cells, n, area, distances); boundary faces list one cell
    and one distance, the interior face lists both in cell order.
    """
    return [
        dict(cells=(0, 1), n=(1, 0, 0), area=1.0, d=(0.25, 0.25), kind="interior"),
        dict(cells=(0,), n=(-1, 0, 0), area=1.0, d=(0.25,), kind="fixed"),
        dict(cells=(1,), n=(1, 0, 0), area=1.0, d=(0.25,), kind="fixed"),
        dict(cells=(0,), n=(0, -1, 0), area=0.5, d=(0.5,), kind="fixed"),
        dict(cells=(0,), n=(0, 1, 0), area=0.5, d=(0.5,), kind="fixed"),
        dict(cells=(1,), n=(0, -1, 0), area=0.5, d=(0.5,), kind="fixed"),
        dict(cells=(1,), n=(0, 1, 0), area=0.5, d=(0.5,), kind="fixed"),
        dict(cells=(0,), n=(0, 0, -1), area=0.5, d=(0.5,), kind="fixed"),
        dict(cells=(0,), n=(0, 0, 1), area=0.5, d=(0.5,), kind="fixed"),
        dict(cells=(1,), n=(0, 0, -1), area=0.5, d=(0.5,), kind="fixed"),
        dict(cells=(1,), n=(0, 0, 1), area=0.5, d=(0.5,), kind="fixed"),
    ]


def hand_assembled_two_cell(mu, lam):
    """14 x 14 elastic operator of the clamped 2-cell mesh, by hand.

    Scalar per-face construction straight from the face dual definitions:
    stress  = a (2 mu_eff (u_out - u_in)/delta - S(n) avg~ r + n avg~ p)
    couple  = -a S(n) avg u
    volflux = a (n . avg u + stab (p_out - p_in)/delta)
    with avg~ weighting each cell by its own w = d/mu and avg by the
    opposite one; cell rows are -eps times the duals plus mass terms.
    Field-major dof order: [u_x | u_y | u_z | r_x | r_y | r_z | p] x 2.
    """
    n_cells = 2
    vol = 0.5

    def dof(field, cell):
        return field * n_cells + cell

    M = np.zeros((14, 14))
    for f in two_cell_faces():
        a = f["area"]
        n = np.array(f["n"], dtype=float)
        S = hand_skew(n)
        if f["kind"] == "interior":
            ci, cj = f["cells"]
            wi = f["d"][0] / mu[ci]
            wj = f["d"][1] / mu[cj]
            delta = f["d"][0] + f["d"][1]
            mu_eff = delta / (wi + wj)
            stab = 0.5 * wi * wj * mu_eff
            # columns: (cell, avg~ weight, avg weight, du sign, dp sign)
            columns = [
                (ci, wi / (wi + wj), wj / (wi + wj), -1.0, -1.0),
                (cj, wj / (wi + wj), wi / (wi + wj), +1.0, +1.0),
            ]
            rows = [(ci, +1.0), (cj, -1.0)]
        else:  # clamped: outside value zero, w_out = 0
            (ci,) = f["cells"]
            wi = f["d"][0] / mu[ci]
            delta = f["d"][0]
            mu_eff = mu[ci]
            stab = 0.0
            columns = [(ci, 1.0, 0.0, -1.0, -1.0)]
            rows = [(ci, +1.0)]

        for rc, eps in rows:
            for cc, at, b, du_sign, dp_sign in columns:
                # momentum rows
                for c in range(3):
                    M[dof(c, rc), dof(c, cc)] += (
                        -eps * a * 2.0 * mu_eff / delta * du_sign
                    )
                    for d in range(3):
                        M[dof(c, rc), dof(3 + d, cc)] += -eps * a * at * (-S[c, d])
                    M[dof(c, rc), dof(6, cc)] += -eps * a * at * n[c]
                # rotation rows
                for c in range(3):
                    for d in range(3):
                        M[dof(3 + c, rc), dof(d, cc)] += -eps * a * b * (-S[c, d])
                # pressure row
                for d in range(3):
                    M[dof(6, rc), dof(d, cc)] += -eps * a * b * n[d]
                M[dof(6, rc), dof(6, cc)] += -eps * a * stab / delta * dp_sign

    for c in range(n_cells):
        for d in range(3):
            M[dof(3 + d, c), dof(3 + d, c)] += vol / mu[c]
        M[dof(6, c), dof(6, c)] += vol / lam[c]
    return M


def central_difference_gradient(f, x, step=1e-5):
    """Componentwise central difference of a scalar field f at points x."""
    x = np.atleast_2d(x)
    out = np.zeros_like(x)
    for d in range(3):
        e = np.zeros(3)
        e[d] = step
        out[:, d] = (f(x + e) - f(x - e)) / (2 * step)
    return out


def central_difference_divergence(vec, x, step=1e-5):
    x = np.atleast_2d(x)
    out = np.zeros(x.shape[0])
    for d in range(3):
        e = np.zeros(3)
        e[d] = step
        out += (vec(x + e)[:, d] - vec(x - e)[:, d]) / (2 * step)
    return out


def central_difference_laplacian(f, x, step=1e-4):
    x = np.atleast_2d(x)
    out = np.zeros(x.shape[0])
    for d in range(3):
        e = np.zeros(3)
        e[d] = step
        out += (f(x + e) - 2 * f(x) + f(x - e)) / step**2
    return out


def central_difference_curl(vec, x, step=1e-5):
    x = np.atleast_2d(x)
    out = np.zeros_like(x)
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        ea, eb = np.zeros(3), np.zeros(3)
        ea[a] = step
        eb[b] = step
        d_a_ub = (vec(x + ea)[:, b] - vec(x - ea)[:, b]) / (2 * step)
        d_b_ua = (vec(x + eb)[:, a] - vec(x - eb)[:, a]) / (2 * step)
        out[:, c] = d_a_ub - d_b_ua
    return out


def local_face_operator(mesh, face, props):
    """Dense map from adjacent cell unknowns to (sigma, tau, v) of one face.

    Rows are (sigma_x, sigma_y, sigma_z, tau_x, tau_y, tau_z, v).  Columns
    are [u, r, p] of the inside cell, and of the outside cell for interior
    faces: 7 x 14 interior, 7 x 7 boundary.  Built one face at a time from
    the package's stencil coefficients, as the brute-force reference for
    the vectorized global assembly.
    """
    arr = stencil_arrays(mesh, props)
    k = int(face)
    a = mesh.face_areas[k]
    n = mesh.face_normals[k]
    s = hand_skew(n)
    interior = not mesh.is_boundary[k]
    L = np.zeros((7, 14 if interior else 7))

    def fill(base, at, b, sign_grad):
        # sign_grad: -1 for the inside cell, +1 for the outside cell
        L[0:3, base : base + 3] += sign_grad * a * arr["g_u"][k] * np.eye(3)
        L[0:3, base + 3 : base + 6] += -a * at * s
        L[0:3, base + 6] += a * at * n
        L[3:6, base : base + 3] += -a * b * s
        L[6, base : base + 3] += a * b * n
        L[6, base + 6] += sign_grad * a * arr["g_p"][k]

    # the opposite-weight average of a side uses the other side's weight
    fill(0, arr["at_in"][k], arr["at_out"][k], -1.0)
    if interior:
        fill(7, arr["at_out"][k], arr["at_in"][k], +1.0)
    return L


def face_duals(mesh, props, x):
    """(sigma, tau, v) per face straight from the face formulas.

    Vectorized over faces with np.cross, independent of the package's
    sparse face map: gathers inside and outside cell values (zero outside
    the boundary) and applies

        sigma = a (g_u (u_out - u_in) - n x avg~ r + n avg~ p)
        tau   = -a n x avg u
        v     = a (n . avg u + g_p (p_out - p_in))

    with avg~ = at_in (.)_in + at_out (.)_out and avg its swap.
    """
    arr = stencil_arrays(mesh, props)
    n = mesh.n_cells
    u = np.stack([x[c * n : (c + 1) * n] for c in range(3)], axis=1)
    r = np.stack([x[(3 + c) * n : (4 + c) * n] for c in range(3)], axis=1)
    p = x[6 * n :]

    cin = mesh.face_cells[:, 0]
    cout = mesh.face_cells[:, 1]
    outside = (~mesh.is_boundary).astype(float)[:, None]
    u_in, r_in, p_in = u[cin], r[cin], p[cin]
    u_out = u[cout] * outside
    r_out = r[cout] * outside
    p_out = p[cout] * outside[:, 0]

    a = mesh.face_areas[:, None]
    nrm = mesh.face_normals
    at_in, at_out = arr["at_in"][:, None], arr["at_out"][:, None]
    avg_u = at_out * u_in + at_in * u_out

    sigma = a * (
        arr["g_u"][:, None] * (u_out - u_in)
        - np.cross(nrm, at_in * r_in + at_out * r_out)
        + nrm * (at_in * p_in[:, None] + at_out * p_out[:, None])
    )
    tau = -a * np.cross(nrm, avg_u)
    v = mesh.face_areas * (
        np.einsum("kd,kd->k", nrm, avg_u) + arr["g_p"] * (p_out - p_in)
    )
    return sigma, tau, v


# S(n) as (row, column, sign, axis) entries: S(n)[row, column] = sign * n[axis]
_CROSS = (
    (0, 1, -1.0, 2), (0, 2, +1.0, 1),
    (1, 0, +1.0, 2), (1, 2, -1.0, 0),
    (2, 0, -1.0, 1), (2, 1, +1.0, 0),
)


def incidence_face_dual_map(mesh, props):
    """The face-dual map G built from every full per-incidence entry array.

    Each of the 22 (dual field, unknown field) pairs gets one value per
    cell-face incidence, zeros included; the arrays are concatenated and
    the zeros dropped only then.  The package builds the same entries in
    the same order but keeps each array's nonzeros as it is made, so the
    two CSRs must agree bit for bit.
    """
    arr = stencil_arrays(mesh, props)
    n, m = mesh.n_cells, mesh.n_faces
    inc = mesh.divergence.tocoo()
    cell, face, eps = inc.row, inc.col, inc.data
    inside = eps > 0
    own = np.where(inside, arr["at_in"][face], arr["at_out"][face])
    other = np.where(inside, arr["at_out"][face], arr["at_in"][face])
    a = mesh.face_areas[face]
    nrm = mesh.face_normals[face]
    entries = [(6, 6, -eps * a * arr["g_p"][face])]
    for c in range(3):
        entries += [
            (c, c, -eps * a * arr["g_u"][face]),
            (c, 6, a * own * nrm[:, c]),
            (6, c, a * other * nrm[:, c]),
        ]
    for c, d, sign, axis in _CROSS:
        entries += [
            (c, 3 + d, -sign * a * own * nrm[:, axis]),
            (3 + c, d, -sign * a * other * nrm[:, axis]),
        ]
    rows = np.concatenate([fr * m + face for fr, _, _ in entries])
    cols = np.concatenate([fc * n + cell for _, fc, _ in entries])
    vals = np.concatenate([v for _, _, v in entries])
    keep = vals != 0.0
    return coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(7 * m, 7 * n)
    ).tocsr()


def incidence_tpsa_matrix(mesh, props):
    """The elastic operator M - (I_7 x div) G on incidence_face_dual_map,
    with the balance made by kron and the result sorted into a copy."""
    volumes, n = mesh.cell_volumes, mesh.n_cells
    mass = np.concatenate(
        [np.zeros(3 * n), np.tile(volumes / props.mu, 3), volumes / props.lam]
    )
    balance = kron(identity(7), mesh.divergence, format="csr")
    matrix = diags(mass) - balance @ incidence_face_dual_map(mesh, props)
    return matrix.tocsr().sorted_indices()


def product_rescale(system, mu0):
    """The rescaled operator as two sparse products, L M L with L = diag(s):
    s = mu0^(-1/2) on the displacement rows, mu0^(+1/2) on the rest."""
    n = system.n_cells
    lam = diags(np.repeat([mu0 ** -0.5, mu0 ** 0.5], [3 * n, 4 * n]))
    return (lam @ system.matrix @ lam).tocsr()


def coo_strength_graph(matrix, threshold):
    """|a_ij| of the off-diagonal couplings with |a_ij| >
    threshold*sqrt(|a_ii a_jj|), through COO, sorted."""
    a = matrix.tocoo()
    d = np.sqrt(np.abs(matrix.diagonal()))
    off = a.row != a.col
    strong = np.abs(a.data) > threshold * d[a.row] * d[a.col]
    keep = off & strong & (a.data != 0.0)
    graph = coo_matrix(
        (np.abs(a.data[keep]), (a.row[keep], a.col[keep])), shape=matrix.shape
    ).tocsr()
    graph.sort_indices()
    return graph


def coo_aggregation_graph(matrix, threshold):
    """coo_strength_graph plus |a_ij| of every nonzero coupling in the row or
    column of a node with no strong coupling, added as a second CSR."""
    strong = coo_strength_graph(matrix, threshold)
    lonely = np.diff(strong.indptr) == 0
    if not np.any(lonely):
        return strong
    a = matrix.tocoo()
    keep = (a.row != a.col) & (a.data != 0.0) & (lonely[a.row] | lonely[a.col])
    extra = coo_matrix(
        (np.abs(a.data[keep]), (a.row[keep], a.col[keep])), shape=matrix.shape
    ).tocsr()
    graph = (strong + extra).tocsr()
    graph.sort_indices()
    return graph


def assert_same_csr(got, want):
    """Two CSR matrices hold the same arrays, dtypes included, bit for bit."""
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


def coupled_probe(case, solver, dp):
    """The convergence probe as a coupled step: one cold iterative solve of
    the load of dp on a whole `CoupledSystem`, flow factorization included,
    as the last step of a march of its own (no start given, so from zero).
    Returns its SolveReport."""
    engine = CoupledSystem(case, replace(solver, method="iterative"))
    return engine.mech_solve(dp, case.time.n_steps)


def multigrid_solve(hier, rhs, rtol=1e-8, max_cycles=100):
    """Stationary V-cycle iteration to rtol relative to the first residual.

    Returns (x, trace of residual norms); raises SolverError with the
    trace when max_cycles cycles do not reach rtol.
    """
    matrix = hier.levels[0].matrix
    x = np.zeros_like(rhs)
    norm0 = np.linalg.norm(rhs - matrix @ x)
    trace = [norm0]
    if norm0 == 0.0:
        return x, trace
    for _ in range(max_cycles):
        # defect correction: the cycle's result is affine in its start, so
        # a cycle started from x is x plus a cycle from zero on the residual
        x = x + hier.vcycle(rhs - matrix @ x)
        res = np.linalg.norm(rhs - matrix @ x)
        trace.append(res)
        if res <= rtol * norm0:
            return x, trace
    raise SolverError(
        f"multigrid stalled at relative residual {trace[-1] / norm0:.3e} "
        f"after {max_cycles} cycles",
        trace=trace,
    )


def reference_vcycle(hier, rhs):
    """One V(1,1) cycle from zero, each Jacobi sweep from its explicit residual."""

    def cycle(depth, b):
        level = hier.levels[depth]
        if level.prolongator is None:
            return hier.coarse_inverse @ b
        x = np.zeros_like(b)
        x += level.weight * (b - level.matrix @ x)
        coarse = cycle(depth + 1, level.restriction @ (b - level.matrix @ x))
        x += level.prolongator @ coarse
        x += level.weight * (b - level.matrix @ x)
        return x

    return cycle(0, rhs)


class CountingOperator:
    """A sparse matrix's stand-in that counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, vector):
        self.products += 1
        return self.matrix @ vector


def greedy_aggregate(strength):
    """Greedy aggregation over a CSR strength graph, numpy per node.

    First pass seeds an aggregate from every node whose neighbors are all
    unclaimed; second pass attaches each leftover to the aggregate of its
    strongest claimed neighbor (np.argmax: the first one on a tie); any
    node still unassigned becomes a singleton.  Returns (assign, count).
    """
    n = strength.shape[0]
    indptr, indices, data = strength.indptr, strength.indices, strength.data
    assign = np.full(n, -1, dtype=np.int64)
    count = 0
    for i in range(n):
        if assign[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        if np.all(assign[nbrs] == -1):
            assign[i] = count
            assign[nbrs] = count
            count += 1
    for i in range(n):
        if assign[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        vals = data[indptr[i] : indptr[i + 1]]
        claimed = assign[nbrs] != -1
        if np.any(claimed):
            best = np.argmax(np.where(claimed, vals, -np.inf))
            assign[i] = assign[nbrs[best]]
    for i in range(n):
        if assign[i] == -1:
            assign[i] = count
            count += 1
    return assign, count


def sequential_march(coupled, psi, warm, predict=True):
    """One march with one single-column mechanics solve per step.

    Step i runs the flow under the source psi[i-1], then solves the
    mechanics for its dp.  Its base guess is warm[i] (the previous pass at
    that step), else step i-1's solution in this march, else zero; with
    predict it starts from that guess plus the correction step i-1 took
    from its own base guess, when that was not zero, and without predict
    from the guess alone.  This rule is kept here, apart from the
    package's (`CoupledSystem.evaluate`), and each solve is handed its
    start as x0.  Each solution is stored back in warm, a list of N+1
    entries the caller keeps across passes.  With psi None the source is
    the lagged one, built from the two previous steps' states
    (state(t_{-1}) := state(t_0)).  Returns the N (dp, u, r, p_hat)
    tuples of steps 1..N.
    """
    case = coupled.case
    volumes = case.mesh.cell_volumes
    alpha_over_lam = case.props.alpha / case.props.lam
    initial = case.initial
    dp = initial.dp
    states = [initial]
    x_prev = guess_prev = None
    out = []
    for i in range(1, case.time.n_steps + 1):
        if psi is None:
            source = coupled.flow_source(states[max(i - 2, 0)], states[i - 1])
        else:
            source = psi[i - 1]
        dp = coupled.flow.step(dp, case.sources[i - 1] + volumes * source)
        rhs = assemble_rhs(
            case.mesh, case.props, pressure_coupling=-alpha_over_lam * dp
        )
        guess = warm[i] if warm[i] is not None else x_prev
        start = guess
        if predict and guess_prev is not None:
            correction = x_prev - guess_prev
            start = guess + correction
        report = coupled.mech.solve(rhs, start)
        warm[i] = x_prev = report.x
        guess_prev = guess
        u, r, p_hat = split_fields(report.x, coupled.n_cells)
        states.append(BiotState(dp=dp, u=u, r=r, p_hat=p_hat))
        out.append((dp, u, r, p_hat))
    return out


def monolithic_march(coupled):
    """Backward Euler on the fully coupled system, one LU for all steps.

    The unknowns of a step are [dp | x], x the 7n elastic unknowns with
    p_hat last.  With V the cell volumes, b = alpha/lam and A the TPFA
    operator, step i solves

        [A + acc/dt           (b V/dt on the p_hat columns)] [dp_i]
        [(b V on the p rows)  TPSA                         ] [x_i ]

          = [acc/dt dp_{i-1} + b V/dt p_hat_{i-1} + sources[i-1]]
            [body-force rhs                                     ]

    with acc = (c0 + alpha^2/lam) V from the material record, whatever
    storage the engine's own flow holds: the flow sees the coupling source
    psi = -b (p_hat_i - p_hat_{i-1})/dt of its own step, and the pressure
    rows the load -b dp_i.  Returns the N (dp, u, r, p_hat) tuples of
    steps 1..N.
    """
    case = coupled.case
    props = case.props
    n, dt = coupled.n_cells, case.time.dt
    coupling = props.alpha / props.lam * case.mesh.cell_volumes
    accumulation = (props.c0 + props.alpha**2 / props.lam) * case.mesh.cell_volumes
    flow = assemble_flow(case.mesh, case.props) + diags(accumulation / dt)
    to_flow = hstack([flow, csr_matrix((n, 6 * n)), diags(coupling / dt)])
    to_mech = vstack([csr_matrix((6 * n, n)), diags(coupling)])
    # the engine keeps only the rescaled operator: assemble it again
    elastic = assemble_tpsa(case.mesh, case.props).matrix
    matrix = vstack([to_flow, hstack([to_mech, elastic])]).tocsc()
    lu = splu(matrix)
    body = assemble_rhs(case.mesh, case.props)
    initial = case.initial
    dp, p_hat = initial.dp, initial.p_hat
    out = []
    for rates in case.sources:
        flow_rhs = accumulation / dt * dp + coupling / dt * p_hat + rates
        solution = lu.solve(np.concatenate([flow_rhs, body]))
        dp = solution[:n]
        u, r, p_hat = split_fields(solution[n:], n)
        out.append((dp, u, r, p_hat))
    return out


def plane_barrier_faces(mesh, lengths, axis, index):
    """Interior faces normal to the axis whose centre lies on the plane
    index / n of the way along it, to 1e-12 of the longest side."""
    plane = lengths[axis] * index / mesh.shape[axis]
    on_plane = (np.abs(mesh.face_normals[:, axis]) > 0.5) & (
        np.abs(mesh.face_centers[:, axis] - plane) < 1e-12 * max(lengths)
    )
    return on_plane & ~mesh.is_boundary


def _format(value, kind):
    if kind in _UNITS:
        return repr(float(value))
    if isinstance(value, tuple):  # a structured well cell
        return " ".join(map(str, value))
    return str(value)


def _write_section(out, header, spec, keys):
    out.write(f"[{header}]\n")
    for key, entry in keys.items():
        value = getattr(spec, entry.field or key)
        if value is not None:  # None marks an optional key without a value
            out.write(f"{key} = {_format(value, entry.kind)}\n")
    out.write("\n")


def serialize_config(config):
    """Canonical SI-unit INI text of every key that holds a value.

    Walks the same key table the parser checks, so parse(serialize(c)) == c
    for single-line text values.
    """
    out = StringIO()
    for section, (attr, _, keys) in _SECTIONS.items():
        _write_section(out, section, getattr(config, attr) if attr else config, keys)
    for well in config.wells:
        _write_section(out, f"well.{well.name}", well, _WELL)
    return out.getvalue()
