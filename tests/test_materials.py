"""The material record: broadcasting and the checks `validate` makes once."""

import numpy as np
import pytest

from biotfv.coupling import BiotCase, TimeGrid
from biotfv.errors import ConfigurationError
from biotfv.materials import PoroelasticProperties
from biotfv.mesh import build_cartesian

MESH = build_cartesian(3, 2, 2)  # 12 cells, 52 faces


def _one_cell(bad):
    """A valid per-cell array with its last cell set to bad."""
    return np.array([1.0] * (MESH.n_cells - 1) + [bad])


def _one_face(bad):
    """A clamped w_out with one boundary face set to bad."""
    w_out = np.zeros(MESH.n_faces)
    w_out[MESH.boundary_faces[0]] = bad
    return w_out


def _record(**kw):
    values = dict(mu=1.0, lam=2.0, alpha=0.5, c0=1e-3, perm=1e-12)
    return PoroelasticProperties(**{**values, **kw})


def test_validate_broadcasts_every_field():
    props = _record(f_u=[1.0, 2.0, 3.0]).validate(MESH)
    for key in ("mu", "lam", "alpha", "c0", "perm", "fluid_viscosity", "f_p"):
        assert getattr(props, key).shape == (12,), key
        assert getattr(props, key).dtype == float, key
    assert props.fluid_viscosity[0] == 1e-3
    assert np.array_equal(props.w_out, np.zeros(52))  # clamped by default
    assert np.array_equal(props.f_u, np.tile([1.0, 2.0, 3.0], (12, 1)))
    unloaded = _record().validate(MESH)
    assert np.array_equal(unloaded.f_u, np.zeros((12, 3)))
    assert np.array_equal(unloaded.f_p, np.zeros(12))
    free = _record(w_out=np.inf).validate(MESH)
    assert np.all(np.isinf(free.w_out))
    # a full-length list passes through as floats, value for value
    cells = _record(perm=list(range(12)), f_p=list(range(12))).validate(MESH)
    assert cells.perm.dtype == float and np.array_equal(cells.perm, np.arange(12))
    assert np.array_equal(cells.f_p, np.arange(12.0))


OUT_OF_RANGE = {
    "mu-zero-cell": ("mu", _one_cell(0.0), "shear modulus must be positive"),
    "mu-negative": ("mu", -1.0, "shear modulus must be positive"),
    "lam-zero-cell": ("lam", _one_cell(0.0), "lambda must be positive"),
    "lam-negative": ("lam", -2.0, "lambda must be positive"),
    "viscosity-zero": ("fluid_viscosity", 0.0, "viscosity must be positive"),
    "viscosity-negative": ("fluid_viscosity", -1e-3, "viscosity must be positive"),
    "alpha-negative": ("alpha", -0.5, "Biot coefficient must be nonnegative"),
    "c0-negative": ("c0", -1e-3, "storativity must be nonnegative"),
    "perm-negative-cell": ("perm", _one_cell(-1.0), "permeability must be nonnegative"),
    "w_out-nan": ("w_out", np.nan, "w_out must be nonnegative, not NaN"),
    "w_out-nan-face": ("w_out", _one_face(np.nan), "w_out must be nonnegative"),
    "w_out-negative-face": ("w_out", _one_face(-1.0), "w_out must be nonnegative"),
    "w_out-minus-inf-face": ("w_out", _one_face(-np.inf), "w_out must be nonnegative"),
    "f_p-nan-cell": ("f_p", _one_cell(np.nan), "fluid source density f_p must be finite"),
    "f_p-inf": ("f_p", np.inf, "fluid source density f_p must be finite"),
    "f_u-nan": ("f_u", np.nan, "body force f_u must be finite"),
    "f_u-minus-inf-row": ("f_u", [0.0, -np.inf, 0.0], "body force f_u must be finite"),
}


@pytest.mark.parametrize(
    "field, value, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys()
)
def test_validate_rejects_out_of_range_values(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        _record(**{field: value}).validate(MESH)


WRONG_SHAPE = {
    "mu-3-cells": ("mu", np.ones(3), "shear modulus"),
    "perm-column": ("perm", np.ones((12, 1)), "permeability"),
    "w_out-5-faces": ("w_out", np.zeros(5), "boundary weight w_out"),
    "w_out-per-cell": ("w_out", np.zeros(12), "boundary weight w_out"),
    "f_u-2-columns": ("f_u", np.ones((12, 2)), "body force f_u"),
    "f_u-per-cell": ("f_u", np.ones(12), "body force f_u"),
    "f_p-3-cells": ("f_p", np.ones(3), "fluid source density f_p"),
    "f_p-1-entry": ("f_p", np.ones(1), "fluid source density f_p"),
    "c0-11-cells": ("c0", np.ones(11), "storativity"),
}


@pytest.mark.parametrize(
    "field, value, name", WRONG_SHAPE.values(), ids=WRONG_SHAPE.keys()
)
def test_validate_rejects_wrongly_shaped_arrays(field, value, name):
    with pytest.raises(ConfigurationError, match=name):
        _record(**{field: value}).validate(MESH)


def test_case_reports_a_wrongly_shaped_fluid_source():
    props = _record(f_p=np.ones(3))
    with pytest.raises(ConfigurationError, match="fluid source density f_p"):
        BiotCase(MESH, props, TimeGrid(1.0, 1))

