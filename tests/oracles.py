"""Independent reference implementations used as test oracles.

Most of this is written in plain scalar style, one cell or face at a
time, deliberately separate from the package's vectorized code paths;
face_duals is the face formulas vectorized over faces with np.cross,
separate from the package's sparse face map.  local_face_operator and
face_duals reuse only the package's per-face stencil coefficients.
multigrid_solve iterates the package's V-cycle as a
stand-alone solver, a second solve path the multigrid tests check.
greedy_aggregate is the greedy aggregation written with one numpy
call per node, the reference the package's list-based loops must match
exactly.  sequential_march is the fixed-stress time march with one
mechanics solve per step, the reference for the package's block solve.
"""

import numpy as np

from biotfv.errors import GeometryError, SolverError
from biotfv.tpsa import assemble_rhs, stencil_arrays


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


def multigrid_solve(hier, rhs, rtol=1e-8, max_cycles=100, x0=None):
    """Stationary V-cycle iteration to rtol relative to the first residual.

    Returns (x, trace of residual norms); raises SolverError with the
    trace when max_cycles cycles do not reach rtol.
    """
    matrix = hier.levels[0].matrix
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    norm0 = np.linalg.norm(rhs - matrix @ x)
    trace = [norm0]
    if norm0 == 0.0:
        return x, trace
    for _ in range(max_cycles):
        x = hier.vcycle(rhs, x)
        res = np.linalg.norm(rhs - matrix @ x)
        trace.append(res)
        if res <= rtol * norm0:
            return x, trace
    raise SolverError(
        f"multigrid stalled at relative residual {trace[-1] / norm0:.3e} "
        f"after {max_cycles} cycles",
        trace=trace,
    )


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


def sequential_march(coupled, psi, warm):
    """One fixed-stress pass with one single-vector mechanics solve per step.

    Step i runs the flow under the source psi[i-1], then solves the
    mechanics for its dp, starting from warm[i] (the previous pass at that
    step) or else warm[i-1]; each solution is stored back in warm, a list
    of N+1 entries the caller keeps across passes.  Returns the N
    (dp, u, r, p_hat) tuples of steps 1..N.
    """
    case = coupled.case
    times = case.time.times
    dp = case.initial_state().dp
    out = []
    for i in range(1, case.time.n_steps + 1):
        dp = coupled.flow.step(dp, case.source_rate(times[i], psi[i - 1]))
        rhs = assemble_rhs(
            case.mesh, coupled.elastic, pressure_coupling=-coupled.alpha_over_lam * dp
        )
        x0 = warm[i] if warm[i] is not None else warm[i - 1]
        x = coupled.mech.solve(rhs, x0=x0).x
        warm[i] = x
        out.append((dp, *coupled.system.split(x)))
    return out
