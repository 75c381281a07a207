"""Closed-form steady solution on the unit cube for convergence studies.

The potential phi(x) = prod_i sin^2(pi x_i) generates every field:

    dp    = phi                      (fluid pressure deviation)
    u_c   = d_{c+1} phi - d_{c-1} phi   (cyclic indices, div u = 0)
    r     = -mu curl u               (rotation unknown)
    p_hat = -alpha phi               (effective pressure, since div u = 0)

All gradient factors vanish on the cube boundary, so u = 0 (fixed walls)
and grad(phi).n = 0 (no-flow walls) hold exactly.  Substituting into the
momentum and mass balances gives the steady body force and fluid source

    f_u = -mu lap(u) + alpha grad(phi),    f_p = -(K/mu_w) lap(phi).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ..coupling import BiotCase, BiotState, TimeGrid, Well
from ..materials import PoroelasticProperties
from ..mesh import Mesh


def _factors(x: np.ndarray):
    """Per-dimension sin^2 factor and its first three derivatives."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    s = np.sin(np.pi * x) ** 2
    s1 = np.pi * np.sin(2.0 * np.pi * x)
    s2 = 2.0 * np.pi**2 * np.cos(2.0 * np.pi * x)
    s3 = -4.0 * np.pi**3 * np.sin(2.0 * np.pi * x)
    return s, s1, s2, s3


def _others(c: int) -> tuple[int, int]:
    return (c + 1) % 3, (c + 2) % 3


@dataclass
class ManufacturedSolution:
    """Exact fields and sources parametrized by scalar material constants."""

    props: PoroelasticProperties

    def phi(self, x: np.ndarray) -> np.ndarray:
        s, _, _, _ = _factors(x)
        return s.prod(axis=1)

    def grad_phi(self, x: np.ndarray) -> np.ndarray:
        s, s1, _, _ = _factors(x)
        out = np.empty_like(s)
        for d in range(3):
            a, b = _others(d)
            out[:, d] = s1[:, d] * s[:, a] * s[:, b]
        return out

    def displacement(self, x: np.ndarray) -> np.ndarray:
        g = self.grad_phi(x)
        out = np.empty_like(g)
        for c in range(3):
            a, b = _others(c)
            out[:, c] = g[:, a] - g[:, b]
        return out

    def rotation(self, x: np.ndarray) -> np.ndarray:
        s, s1, s2, _ = _factors(x)
        out = np.empty_like(s)
        for c in range(3):
            a, b = _others(c)
            curl_c = s1[:, c] * (s1[:, a] * s[:, b] + s[:, a] * s1[:, b]) - s[
                :, c
            ] * (s2[:, a] * s[:, b] + s[:, a] * s2[:, b])
            out[:, c] = -self.props.mu * curl_c
        return out

    def effective_pressure(self, x: np.ndarray) -> np.ndarray:
        return -self.props.alpha * self.phi(x)

    def _laplacian_displacement(self, x: np.ndarray) -> np.ndarray:
        s, s1, s2, s3 = _factors(x)
        t = np.empty_like(s)
        for d in range(3):
            a, b = _others(d)
            t[:, d] = s3[:, d] * s[:, a] * s[:, b] + s1[:, d] * (
                s2[:, a] * s[:, b] + s[:, a] * s2[:, b]
            )
        out = np.empty_like(s)
        for c in range(3):
            a, b = _others(c)
            out[:, c] = t[:, a] - t[:, b]
        return out

    def body_force(self, x: np.ndarray) -> np.ndarray:
        mu, alpha = self.props.mu, self.props.alpha
        return -mu * self._laplacian_displacement(x) + alpha * self.grad_phi(x)

    def fluid_source(self, x: np.ndarray) -> np.ndarray:
        s, _, s2, _ = _factors(x)
        lap = np.zeros(s.shape[0])
        for d in range(3):
            a, b = _others(d)
            lap += s2[:, d] * s[:, a] * s[:, b]
        return -(self.props.perm / self.props.fluid_viscosity) * lap

    def exact_state(self, mesh: Mesh, t: float = 0.0) -> BiotState:
        centers = mesh.cell_centers
        return BiotState(
            dp=self.phi(centers),
            u=self.displacement(centers),
            r=self.rotation(centers),
            p_hat=self.effective_pressure(centers),
            t=t,
        )

    def as_case(
        self, mesh: Mesh, time: TimeGrid, w_out: np.ndarray | float = 0.0,
        wells: Sequence[Well] = (), name: str = "manufactured",
    ) -> BiotCase:
        """Coupled case with steady sources and the exact initial state.

        The closed form holds on fixed walls (w_out = 0, the default)
        without wells.
        """
        centers = mesh.cell_centers
        props = replace(
            self.props, w_out=w_out,
            f_u=self.body_force(centers), f_p=self.fluid_source(centers),
        )
        return BiotCase(
            mesh=mesh,
            props=props,
            time=time,
            wells=wells,
            initial=self.exact_state(mesh, t=time.t0),
            name=name,
        )
