"""The one per-cell material record that flow and mechanics both read.

Flow and mechanics share the cell centres, so one record carries every
material value of the coupled problem: the elastic moduli, the Biot
coefficient, the storativity, the permeability, the fluid viscosity, the
mechanical closure of the walls and the two loads, the body force f_u and
the fluid source density f_p.  `validate` checks it once and broadcasts it
to the mesh, so every per-cell input of a case passes this one check; the
TPFA and TPSA assemblies and `BiotCase`, which builds its source history
from f_p, read the validated arrays directly.

A wall's closure enters the elastic stencil only through its outside
weight w_out = delta / mu per boundary face: clamped 0, a Robin spring of
distance delta and modulus mu delta / mu, traction-free the limit inf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .mesh import Mesh

__all__ = ["PoroelasticProperties"]

_TINY = np.finfo(float).tiny

# (field, what it is, lower bound): a modulus or viscosity must be a
# positive normal float, since a subnormal one makes an operator singular;
# a load may take either sign.  Every value must be finite.
_CELL_FIELDS = (
    ("mu", "shear modulus", _TINY),
    ("lam", "Lame parameter lambda", _TINY),
    ("alpha", "Biot coefficient", 0.0),
    ("c0", "storativity", 0.0),
    ("perm", "permeability", 0.0),
    ("fluid_viscosity", "fluid viscosity", _TINY),
    ("f_u", "body force f_u", -np.inf),
    ("f_p", "fluid source density f_p", -np.inf),
)


def _per_cell(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A scalar, one row, or a full array of the given shape, as a float copy
    of that shape; any other shape is a configuration error naming the value."""
    arr = np.asarray(value, dtype=float)
    if arr.shape not in ((), shape[1:], shape):
        raise ConfigurationError(
            f"{name}: expected scalar or {shape} array, got shape {arr.shape}"
        )
    return np.broadcast_to(arr, shape).copy()


@dataclass
class PoroelasticProperties:
    """Material data of the coupled problem, one record for flow and mechanics.

    Units: mu, lam in Pa; alpha dimensionless; c0 in 1/Pa; perm in m^2;
    fluid_viscosity in Pa s; w_out, the outside weight of each face's
    mechanical closure, in m/Pa (only boundary faces read it); f_u, a
    body-force density additional to the hydrostatic reference, in N/m^3;
    f_p, a volumetric fluid source density, in 1/s.  The flow unknown is
    the pressure deviation from a hydrostatic reference, which never
    enters the discretization.  Values may be scalars until `validate`
    places the record on a mesh.
    """

    mu: np.ndarray | float
    lam: np.ndarray | float
    alpha: np.ndarray | float
    c0: np.ndarray | float
    perm: np.ndarray | float
    fluid_viscosity: np.ndarray | float = 1e-3
    w_out: np.ndarray | float = 0.0  # clamped walls
    f_u: np.ndarray | float = 0.0
    f_p: np.ndarray | float = 0.0

    def validate(self, mesh: Mesh) -> PoroelasticProperties:
        """The checked record on this mesh, every field broadcast once.

        Gives a copy with f_u as an (n, 3) array (a scalar or one (3,) row
        fills every cell), w_out as (n_faces,) and every other field as
        (n,).  Each value must be finite and within its bound in
        `_CELL_FIELDS`, and w_out nonnegative and not NaN; a wrong shape
        or value raises a `ConfigurationError` naming the field.
        """
        n = mesh.n_cells
        arrays = {}
        for key, name, low in _CELL_FIELDS:
            shape = (n, 3) if key == "f_u" else (n,)
            value = arrays[key] = _per_cell(getattr(self, key), shape, name)
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite")
            if np.any(value < low):
                raise ConfigurationError(
                    f"{name} must be nonnegative" if low == 0.0 else
                    f"{name} must be positive and at least {_TINY:.4g} (not subnormal)"
                )
        w_out = _per_cell(self.w_out, (mesh.n_faces,), "boundary weight w_out")
        if not np.all(w_out >= 0):  # also false for NaN
            raise ConfigurationError(
                "boundary weight w_out must be nonnegative, not NaN"
            )
        return replace(self, **arrays, w_out=w_out)
