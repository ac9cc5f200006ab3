"""The friction-free half of an evaluation is made once per transport A object."""

import tracemalloc
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from hypoco.basis import TRANSPORTS, BasisSpec, Potential, build_basis, clear_basis_cache
from hypoco.constants import constants_summary
from hypoco.errors import InvariantViolation
from hypoco.models import model_bound_report
from hypoco.operators import (ModelOperators, ModelSpec, assemble_model, diagonal,
                              verify_structural_assumptions)
from hypoco.schur import build_decomposition, norm_X21, schur_complement

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


_COS_2D = "1 0:0.5,0;0 1:0.5,0"
_REFILLED = [
    (LANGEVIN, BasisSpec(d=1, n_q=8, n_p=32), None),
    (ModelSpec(model="boltzmann_rhmc", gamma=1.0), BasisSpec(d=1, n_q=16, n_p=16), None),
    (ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=0.5),
     BasisSpec(d=1, n_q=6, n_p=6, n_xi=6), None),
    (ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=2.0),
     BasisSpec(d=1, n_q=6, n_p=6, n_xi=6), None),
    (ModelSpec(model="langevin", gamma=1.0, d=2), BasisSpec(d=2, n_q=3, n_p=3), _COS_2D),
]


def _assert_bitwise(mat, expected):
    assert type(mat) is type(expected) and mat.shape == expected.shape
    for part in ("indptr", "indices", "data"):
        got, want = getattr(mat, part), getattr(expected, part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part


@pytest.mark.parametrize("gamma", [1e-4, 1.0, 1e3])
@pytest.mark.parametrize("model, spec, text", _REFILLED)
def test_refilled_blocks_are_bitwise_the_slices_of_a_plus_s(model, spec, text, gamma,
                                                             cos_potential, monkeypatch):
    # L and each block an evaluation reads are refilled from a friction-free pattern;
    # values, zero signs, indices and indptr must be those of slicing A + diag(S)
    potential = cos_potential if text is None else Potential.from_string(text, d=spec.d)
    basis = build_basis(spec, potential)
    assemble_model(basis, model)  # the patterns are kept from a first friction
    refilled, refill = [], ModelOperators.refill

    def recording(self, pattern):
        refilled.append(refill(self, pattern))
        return refilled[-1]

    monkeypatch.setattr(ModelOperators, "refill", recording)
    ops = assemble_model(basis, replace(model, gamma=gamma))
    dec = build_decomposition(ops)
    norm_X21(dec)
    L = sp.csr_matrix(ops.A + diagonal(ops.S))
    plus, order, h1 = ops.idx_plus, dec.factor.order, ops.idx_plus[dec.h1_rows]
    lpp_h1 = L[:, h1][plus]
    x21_rows = np.union1d(dec.h1_rows, np.flatnonzero(lpp_h1.getnnz(axis=1)))
    expected = [L, lpp_h1[x21_rows], sp.csc_matrix(L[order][:, order])]
    assert len(refilled) == len(expected)
    for mat, want in zip(refilled, expected):
        _assert_bitwise(mat, want)
    _assert_bitwise(ops.L, L)
    # L11 is read off X21's product L++ Q1 on its H1 rows, bitwise as if sliced
    assert dec.L11.tobytes() == (dec.Q1.T @ (L[h1][:, h1] @ dec.Q1)).tobytes()


@pytest.mark.parametrize("model, spec", [
    (LANGEVIN, SPEC),
    (ModelSpec(model="boltzmann_rhmc", gamma=1.0), SPEC),
    (ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=0.5),
     BasisSpec(d=1, n_q=4, n_p=4, n_xi=4)),
])
def test_a_warm_evaluation_adds_no_entry_and_slices_nothing(model, spec, cos_potential,
                                                             constants, monkeypatch):
    # at a second friction on a cached transport, L and its blocks are refilled, not
    # sliced or converted: three refills (L, L++ on X21's rows, L in the H0-last order),
    # and the route certificate reads A_{+0} on its H1 rows off the transport's split
    model_bound_report(model, spec, cos_potential, constants=constants,
                       check_convergence=False)
    entries, shapes, refills, converted = len(TRANSPORTS), [], [], []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        def recording(self, key, getitem=cls.__getitem__):
            out = getitem(self, key)
            shapes.append(out.shape)
            return out
        monkeypatch.setattr(cls, "__getitem__", recording)
    refill, tocsc = ModelOperators.refill, sp.csr_matrix.tocsc
    monkeypatch.setattr(ModelOperators, "refill",
                        lambda self, pattern: refills.append(pattern) or refill(self, pattern))
    monkeypatch.setattr(sp.csr_matrix, "tocsc",
                        lambda self, copy=False: converted.append(self.shape) or tocsc(self, copy))
    model_bound_report(replace(model, gamma=3.0), spec, cos_potential, constants=constants,
                       check_convergence=False)
    assert len(TRANSPORTS) == entries
    assert (shapes, len(refills), converted) == ([], 3, [])


def test_twenty_transports_fit_the_cache(cos_potential, constants):
    # the benchmark's 1-d sweep runs 15 transports a pass at seed 0, and 20 at a seed
    # that draws the RHMC points' potential apart from Langevin's: values per transport
    # past the cache's capacity would evict and rebuild every value on every pass
    specs = [BasisSpec(d=1, n_q=n_q, n_p=n_p) for n_q in (3, 4, 5, 6) for n_p in range(3, 8)]

    def one_round():
        for spec in specs:
            model_bound_report(LANGEVIN, spec, cos_potential, constants=constants,
                               check_convergence=False)

    one_round()
    held = dict(TRANSPORTS)
    assert len({id(sources[0]) for sources, _ in held.values()}) == len(specs)
    one_round()
    assert len(TRANSPORTS) == len(held)
    assert all(TRANSPORTS.get(key) is value for key, value in held.items())
