"""The friction-free half of an evaluation is made once per transport A object."""

import tracemalloc
from functools import cached_property

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from hypoco.basis import TRANSPORTS, BasisSpec, build_basis, clear_basis_cache
from hypoco.constants import constants_summary
from hypoco.errors import InvariantViolation
from hypoco.models import model_bound_report
from hypoco.operators import (ModelOperators, ModelSpec, assemble_model,
                              verify_structural_assumptions)
from hypoco.schur import build_decomposition, schur_complement

SPEC = BasisSpec(d=1, n_q=8, n_p=8)
LANGEVIN = ModelSpec(model="langevin", gamma=1.0)


@pytest.fixture(scope="module")
def constants(cos_potential):
    return constants_summary(cos_potential, 1.0, 1.0, 1, n_q=32)


def test_a_friction_sweep_makes_one_split_and_one_x2(cos_potential, constants, monkeypatch):
    # the pivoted QR and X^2's Gram matrix depend on A alone; three frictions share them
    qr, calls = sla.qr, {"qr": 0, "gram": 0}

    def counting_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    gram = ModelOperators.apl0_gram.func

    def counting_gram(self):
        calls["gram"] += 1
        return gram(self)

    counted = cached_property(counting_gram)
    counted.__set_name__(ModelOperators, "apl0_gram")
    monkeypatch.setattr(sla, "qr", counting_qr)
    monkeypatch.setattr(ModelOperators, "apl0_gram", counted)
    reports = [model_bound_report(ModelSpec(model="langevin", gamma=g), SPEC, cos_potential,
                                  constants=constants, check_convergence=False)
               for g in (0.5, 1.0, 2.0)]
    assert calls == {"qr": 1, "gram": 1}
    assert len({r.details["X2"] for r in reports}) == 1
    assert len({r.bound for r in reports}) == 3


def test_a_broken_transport_on_a_cached_basis_trips_the_rank_check(cos_potential):
    # the split is keyed on the A object, not on the basis that a healthy A shares
    ops = assemble_model(build_basis(SPEC, cos_potential), LANGEVIN)
    healthy = build_decomposition(ops)
    a = ops.A.tolil()
    a[:, ops.idx0[0]] = 0.0
    broken = ModelOperators(model=ops.model, basis=ops.basis, A=sp.csr_matrix(a), S=ops.S,
                            pi0=ops.pi0, reversal=ops.reversal)
    with pytest.raises(InvariantViolation, match=r"macroscopic coercivity failure: "
                                                 r"rank\(A10\) = 15 < dim H0 = 16"):
        build_decomposition(broken)
    assert np.array_equal(build_decomposition(ops).Q1, healthy.Q1)


def test_tolerances_judge_a_cached_transport_on_every_call(cos_potential):
    # the cache keeps numbers, not verdicts
    ops = assemble_model(build_basis(SPEC, cos_potential), LANGEVIN)
    build_decomposition(ops)
    assert verify_structural_assumptions(ops).passed
    with pytest.raises(InvariantViolation, match=r"rank\(A10\) = 0 < dim H0 = 16$"):
        build_decomposition(ops, rank_tol=1.0)
    with pytest.raises(InvariantViolation, match="H1 projector residuals exceed tolerance"):
        build_decomposition(ops, tol_identity=0.0)
    assert not verify_structural_assumptions(ops, tol=0.0).passed


def test_each_decomposition_owns_writable_copies_of_the_split(cos_potential):
    ops = assemble_model(build_basis(SPEC, cos_potential), LANGEVIN)
    one, two = build_decomposition(ops), build_decomposition(ops)
    for name in ("Q1", "A10"):
        first, second = getattr(one, name), getattr(two, name)
        assert first.flags.writeable and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
    one.Q1[...] *= 2.0
    schur_complement(build_decomposition(ops))  # the cached split is untouched


@pytest.mark.parametrize("model, spec", [
    (LANGEVIN, SPEC),
    (ModelSpec(model="boltzmann_rhmc", gamma=0.3), SPEC),
    (ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=0.5),
     BasisSpec(d=1, n_q=4, n_p=4, n_xi=4)),
])
def test_a_cleared_cache_recomputes_every_value_bitwise(model, spec, cos_potential, constants):
    def evaluate():
        dec = build_decomposition(assemble_model(build_basis(spec, cos_potential), model))
        report = model_bound_report(model, spec, cos_potential, constants=constants)
        return dec, report

    (dec, report), transports = evaluate(), len(TRANSPORTS)
    clear_basis_cache()
    assert len(TRANSPORTS) == 0
    fresh, again = evaluate()
    assert (again.bound, again.exact, again.a, again.details["norm_L21A10inv"]) == \
        (report.bound, report.exact, report.a, report.details["norm_L21A10inv"])
    assert again.assumptions.residuals == report.assumptions.residuals
    for name in ("h1_rows", "Q1", "A10", "L11", "S11"):
        assert np.array_equal(getattr(fresh, name), getattr(dec, name))
    assert fresh.pi1_range_residual == dec.pi1_range_residual
    assert fresh.ops.A is not dec.ops.A
    assert len(TRANSPORTS) == transports


def test_repeated_passes_hold_no_more_memory(cos_potential, constants):
    # a value keyed on a per-evaluation object would add entries on every pass
    cases = [(LANGEVIN, BasisSpec(d=1, n_q=4, n_p=4)),
             (ModelSpec(model="boltzmann_rhmc", gamma=2.0), BasisSpec(d=1, n_q=4, n_p=4)),
             (ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=2.0),
              BasisSpec(d=1, n_q=4, n_p=4, n_xi=4))]

    def one_pass():
        for model, spec in cases:
            model_bound_report(model, spec, cos_potential, constants=constants)

    one_pass()
    entries = len(TRANSPORTS)
    tracemalloc.start()
    try:
        held = []
        for _ in range(3):
            tracemalloc.reset_peak()
            one_pass()
            held.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(TRANSPORTS) == entries
    (current, peak), (last_current, last_peak) = held[0], held[-1]
    assert last_current <= current + 64 * 1024
    assert last_peak <= peak + 64 * 1024
