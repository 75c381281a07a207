"""The one per-cell material record that flow and mechanics both read.

Flow and mechanics share the cell centres, so one record carries every
material value of the coupled problem: the elastic moduli, the Biot
coefficient, the storativity, the permeability, the fluid viscosity, the
body force and the mechanical closure of the walls.  `validate` checks it
once and broadcasts it to the mesh; the TPFA and TPSA assemblies read the
validated arrays directly.

A wall's closure enters the elastic stencil only through its outside
weight w_out = delta / mu per boundary face: clamped 0, a Robin spring of
distance delta and modulus mu delta / mu, traction-free the limit inf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .mesh import Mesh, per_cell

__all__ = ["PoroelasticProperties"]

_TINY = np.finfo(float).tiny

# (field, what it is, positive): a positive value must be a normal float,
# any other nonnegative
_CELL_FIELDS = (
    ("mu", "shear modulus", True),
    ("lam", "Lame parameter lambda", True),
    ("alpha", "Biot coefficient", False),
    ("c0", "storativity", False),
    ("perm", "permeability", False),
    ("fluid_viscosity", "fluid viscosity", True),
)


def _sized(value, size: int, name: str) -> np.ndarray:
    """per_cell, reporting a wrongly shaped value as a configuration error."""
    try:
        return per_cell(value, size)
    except ValueError as err:
        raise ConfigurationError(f"{name}: {err}") from err


@dataclass
class PoroelasticProperties:
    """Material data of the coupled problem, one record for flow and mechanics.

    Units: mu, lam in Pa; alpha dimensionless; c0 in 1/Pa; perm in m^2;
    fluid_viscosity in Pa s; w_out, the outside weight of each face's
    mechanical closure, in m/Pa (only boundary faces read it); f_u, a
    body-force density additional to the hydrostatic reference, in N/m^3.
    The flow unknown is the pressure deviation from a hydrostatic
    reference, which never enters the discretization.  Values may be
    scalars until `validate` places the record on a mesh.
    """

    mu: np.ndarray | float
    lam: np.ndarray | float
    alpha: np.ndarray | float
    c0: np.ndarray | float
    perm: np.ndarray | float
    fluid_viscosity: np.ndarray | float = 1e-3
    w_out: np.ndarray | float = 0.0  # clamped walls
    f_u: np.ndarray | None = None

    def validate(self, mesh: Mesh) -> PoroelasticProperties:
        """The checked record on this mesh, every field broadcast once.

        Gives a copy with the six material fields as (n,) arrays, w_out as
        an (n_faces,) array and f_u as (n, 3) (zero when unset).  Moduli
        and viscosity must be positive normal floats, since a subnormal one
        makes an operator singular; the other material values must be
        finite and nonnegative, and w_out nonnegative and not NaN.
        """
        n = mesh.n_cells
        arrays = {}
        for key, name, positive in _CELL_FIELDS:
            value = arrays[key] = _sized(getattr(self, key), n, name)
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite")
            if positive and np.any(value < _TINY):
                raise ConfigurationError(
                    f"{name} must be positive and at least {_TINY:.4g} (not subnormal)"
                )
            if not positive and np.any(value < 0):
                raise ConfigurationError(f"{name} must be nonnegative")
        w_out = _sized(self.w_out, mesh.n_faces, "boundary weight w_out")
        if not np.all(w_out >= 0):  # also false for NaN
            raise ConfigurationError(
                "boundary weight w_out must be nonnegative, not NaN"
            )
        f_u = np.zeros((n, 3)) if self.f_u is None else self.f_u
        try:
            f_u = np.broadcast_to(np.asarray(f_u, dtype=float), (n, 3)).copy()
        except ValueError as err:
            raise ConfigurationError(f"body force f_u: {err}") from err
        return replace(self, **arrays, w_out=w_out, f_u=f_u)
