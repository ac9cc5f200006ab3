import numpy as np
import pytest

from hypoco.basis import BasisSpec, Potential, build_basis, clear_basis_cache
from hypoco.operators import ModelSpec, assemble_model

COS_Q = "1:0.5,0"
COS_COS2 = "1:0.5,0;2:0.25,0"


@pytest.fixture(autouse=True)
def fresh_basis_cache():
    """Start every test without shared bases, so a test that patches basis
    internals builds its own."""
    clear_basis_cache()


@pytest.fixture(scope="session")
def cos_potential():
    return Potential.from_string(COS_Q, d=1)


@pytest.fixture(scope="session")
def cos_basis(cos_potential):
    return build_basis(BasisSpec(d=1, n_q=8, n_p=8), potential=cos_potential)


@pytest.fixture(scope="session")
def langevin_ops(cos_basis):
    return assemble_model(cos_basis, ModelSpec(model="langevin", gamma=1.0))


@pytest.fixture(scope="session")
def rhmc_ops(cos_basis):
    return assemble_model(cos_basis, ModelSpec(model="boltzmann_rhmc", gamma=1.0))


@pytest.fixture(scope="session")
def adl_basis(cos_potential):
    return build_basis(BasisSpec(d=1, n_q=6, n_p=6, n_xi=6),
                       potential=cos_potential)


@pytest.fixture(scope="session")
def adl_ops(adl_basis):
    return assemble_model(adl_basis, ModelSpec(model="adaptive_langevin",
                                               gamma=1.0, epsilon=1.0))


def random_working_vector(basis, rng):
    return rng.standard_normal(basis.spec.dimension)


def dense_q1(dec):
    """The decomposition's H1 basis scattered into H+ coordinates, dim H+ x dim0:
    the reference the tests compare against, which the decomposition never forms."""
    q1 = np.zeros((len(dec.ops.idx_plus), dec.dim0))
    q1[dec.h1_rows] = dec.Q1
    return q1
