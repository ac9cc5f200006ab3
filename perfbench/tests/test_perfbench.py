"""Tests of the benchmark's own logic: spans, tail rule, wrappers, checks.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import checks
import layers
import run
import spans
import workloads
from spans import Tracer

from conftest import BENCH, ROOT


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_layers(monkeypatch):
    """Two fake layer modules; ``high`` holds a by-name binding of ``low.c``."""
    clock = FakeClock()
    low = types.ModuleType("fake_low")
    high = types.ModuleType("fake_high")

    def c():
        clock.now += 2.0

    def a():
        clock.now += 1.0
        high.c()
        clock.now += 1.0

    def b():
        clock.now += 3.0
        high.c()

    def top():
        high.a()
        high.b()

    def rec(n):
        clock.now += 1.0
        if n:
            high.rec(n - 1)

    c.__module__ = "fake_low"
    for fn in (a, b, top, rec):
        fn.__module__ = "fake_high"
    low.c = c
    high.a, high.b, high.top, high.rec, high.c = a, b, top, rec, c
    monkeypatch.setitem(sys.modules, "fake_low", low)
    monkeypatch.setitem(sys.modules, "fake_high", high)
    tracer = Tracer(layers={"fake_low": "low", "fake_high": "high"}, clock=clock)
    return tracer, high


def test_self_time_with_a_child_called_from_two_parents(fake_layers):
    tracer, high = fake_layers
    with tracer:
        high.top()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    own = spans.self_seconds(tracer.spans)
    top, = by_name["fake_high.top"]
    a, = by_name["fake_high.a"]
    b, = by_name["fake_high.b"]
    assert top.seconds == 9.0 and own[top.id] == 0.0
    assert (a.seconds, own[a.id]) == (4.0, 2.0)
    assert (b.seconds, own[b.id]) == (5.0, 3.0)
    children = by_name["fake_low.c"]
    assert sorted(s.parent for s in children) == sorted([a.id, b.id])
    assert all(own[s.id] == 2.0 for s in children)
    assert spans.layer_self_seconds(tracer.spans) == {"high": 5.0, "low": 4.0}
    assert spans.inclusive_seconds(tracer.spans, "fake_low.c") == 4.0
    assert spans.calls(tracer.spans, "fake_low.c") == 2


def test_nested_calls_of_one_name_count_once(fake_layers):
    tracer, high = fake_layers
    with tracer:
        high.rec(2)
    assert spans.calls(tracer.spans, "fake_high.rec") == 3
    assert spans.inclusive_seconds(tracer.spans, "fake_high.rec") == 3.0


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------


def test_tail_rule_at_28_samples():
    samples = [0.01 * ((5 * i) % 28 + 1) for i in range(28)]  # 0.01..0.28, shuffled
    value, percentile = run.tail_point(samples)
    assert sum(x > value for x in samples) == 10
    assert value == pytest.approx(0.18)
    assert percentile == pytest.approx(100 * 18 / 28)


def test_tail_rule_without_ten_points_beyond_is_the_maximum():
    assert run.tail_point([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, percentile = run.tail_point(list(range(11)))
    assert (value, percentile) == (0, pytest.approx(100 / 11))


# ---------------------------------------------------------------------------
# wrappers around the real layers
# ---------------------------------------------------------------------------


def _bindings():
    tracer = Tracer()
    return {(m.__name__, attr): fn for m, attr, fn in tracer.targets()}


def test_wrappers_cover_by_name_bindings_and_are_restored():
    import hypoco.models
    import hypoco.schur
    from hypoco.basis import BasisSpec, Potential
    from hypoco.constants import constants_summary
    from hypoco.operators import ModelSpec

    spec = BasisSpec(d=1, n_q=4, n_p=4)
    model = ModelSpec(model="langevin", gamma=1.0)
    pot = Potential.from_string("1:0.5,0", d=1)
    constants = constants_summary(pot, 1.0, 1.0, 1, n_q=8)
    before = _bindings()
    original = hypoco.schur.build_decomposition
    tracer = Tracer(probes=layers.PROBES)
    with tracer:
        assert hypoco.models.build_decomposition is hypoco.schur.build_decomposition
        assert hypoco.models.build_decomposition is not original
        assert hypoco.models.build_decomposition.__wrapped__ is original
        hypoco.models.model_bound_report(model, spec, pot, constants=constants)
        hypoco.models.model_bound_report(model, spec, pot, constants=constants)
    # every binding is the original function again, so untraced runs carry
    # no wrapper
    assert all(getattr(sys.modules[mod], attr) is fn
               for (mod, attr), fn in before.items())
    assert hypoco.schur.build_decomposition is original
    count = len(tracer.spans)
    hypoco.models.model_bound_report(model, spec, pot, constants=constants,
                                     check_convergence=False)
    assert len(tracer.spans) == count

    by_id = {s.id: s for s in tracer.spans}
    decs = [s for s in tracer.spans if s.name == "schur.build_decomposition"]
    assert len(decs) == 6
    assert all(by_id[s.parent].name == "models.model_bound_report" for s in decs)
    metrics, counts = layers.per_layer_metrics(tracer.spans, wall_s=1.0)
    assert metrics["models.model_bound_report.calls"] == 2
    assert metrics["models.evaluations"] == 6
    assert metrics["models.repeat_evaluations"] == 3
    assert metrics["basis.build_basis.distinct"] == 3
    assert metrics["operators.L_nnz"] >= metrics["operators.L_nnz_noise"] > 0
    assert metrics["schur.lu_fill_nnz"] > 0


def test_coverage_flags_a_layer_metric_that_recorded_no_call():
    names = [name for name, _ in layers.PER_LAYER]
    assert set(layers.COVERAGE) == set(names)
    metrics = {name: 1.0 for name in names}
    counts = {f"calls:{n.rsplit('.', 1)[0]}": 1 for n in names}
    counts.update({f"layer:{n.split('.')[0]}": 1 for n in names})
    for workload in workloads.WORKLOADS:
        assert layers.coverage_problems(workload, metrics, counts) == []
    counts["calls:schur.intermediate_norms"] = 0
    problems = layers.coverage_problems("thermostat_cli", metrics, counts)
    assert problems == ["coverage: schur.intermediate_norms.s recorded no call "
                        "on thermostat_cli"]
    assert layers.coverage_problems("sweep_1d", metrics, counts) == []


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flat_point():
    """One real sweep_1d point: Langevin, flat potential, gamma = 1."""
    from hypoco.constants import constants_summary
    from hypoco.basis import Potential

    pot = Potential.zero(1)
    constants = constants_summary(pot, 1.0, 1.0, 1, n_q=32)
    return workloads._run_op("langevin/flat/gamma=1", lambda: workloads._sweep_point(
        "langevin", pot, 1.0, constants, 8))


def test_checker_accepts_the_reference_and_rejects_a_perturbed_output(flat_point):
    reference = checks.load_reference()["sweep_1d"]
    expected = {flat_point.name: reference[flat_point.name]}
    got = checks.reference_values("sweep_1d", [flat_point])
    assert checks.compare_reference(expected, got) == []
    assert checks._sweep_problems(flat_point, seed=0) == []

    wrong = copy.deepcopy(flat_point)
    wrong.values["bound"] *= 1 + 1e-4
    problems = checks.compare_reference(expected, checks.reference_values("sweep_1d", [wrong]))
    assert [name for name, _ in problems] == [flat_point.name]

    unsound = copy.deepcopy(flat_point)
    unsound.values["steps"][-1]["margin"] = 0.99
    assert checks._sweep_problems(unsound, seed=1)


def _tensor_ops():
    ref = checks.load_reference()["tensor_2d"]
    return [workloads.Op(name, values=dict(values)) for name, values in ref.items()]


def test_tensor_checker_rejects_a_broken_tensorization():
    ops = _tensor_ops()
    assert checks.invariant_problems("tensor_2d", 0, {}, ops) == []
    ops[[op.name for op in ops].index("d=2")].values["X2"] *= 1.1
    problems = checks.invariant_problems("tensor_2d", 0, {}, ops)
    assert any("X^2 differs" in msg for _, msg in problems)
    assert any("bound differs" in msg for _, msg in problems)


def test_thermostat_checker_rejects_cli_output_that_is_not_reproducible():
    def report(model, payload):
        document = {"assumptions": {"passed": True}, "config": {"model": model},
                    "bound": {"converged": True, "margin": 2.0}}
        return {"exit": 0, "stderr": "", "document": document,
                "json_bytes": payload, "csv_bytes": b"row"}

    params = workloads.make_params("thermostat_cli", 0)
    rows = [{"gamma": repr(float(g)), "epsilon": repr(float(e)), "bound": "2.0", "exact": "1.0",
             "margin": "2.0", "converged": "true"}
            for g in checks._grid(params["gamma_range"])
            for e in checks._grid(params["epsilon_range"])]
    ops = [workloads.Op("sweep", values={"exit": 0, "stderr": "", "rows": rows}),
           workloads.Op("report adl", values=report("adaptive_langevin", b"{}")),
           workloads.Op("report langevin #1", values=report("langevin", b"{1}")),
           workloads.Op("report langevin #2", values=report("langevin", b"{1}"))]
    assert checks.invariant_problems("thermostat_cli", 1, params, ops) == []
    ops[3].values["json_bytes"] = b"{2}"
    assert checks.invariant_problems("thermostat_cli", 1, params, ops) == [
        ("report langevin #2", "JSON differs from the first run")]
    ops[0].values["exit"] = 3  # claims an unconverged point where none is
    assert ("sweep" in {name for name, _ in
                        checks.invariant_problems("thermostat_cli", 1, params, ops)})


# ---------------------------------------------------------------------------
# inputs and the benchmark's declared interface
# ---------------------------------------------------------------------------


def test_seed_0_is_the_acceptance_input_and_other_seeds_stay_in_their_bins():
    p0 = workloads.make_params("sweep_1d", 0)
    assert [c["text"] for c in p0["cases"]] == ["0", "1:0.5,0", "1:0.5,0;2:0.25,0", "1:0.5,0"]
    assert all(c["gammas"] == list(workloads.FRICTIONS) for c in p0["cases"])
    assert workloads.make_params("tensor_2d", 0)["text_2d"] == "1 0:0.5,0;0 1:0.5,0"
    assert workloads.make_params("thermostat_cli", 0)["gamma_range"] == "0.25:4.0:log3"
    for seed in (1, 2, 3):
        p = workloads.make_params("sweep_1d", seed)
        assert p == workloads.make_params("sweep_1d", seed)
        for case in p["cases"]:
            bins = workloads.grid_bins(workloads.FRICTIONS)
            assert all(lo <= g <= hi and g not in workloads.FRICTIONS
                       for g, (lo, hi) in zip(case["gammas"], bins))
        gammas = checks._grid(workloads.make_params("thermostat_cli", seed)["gamma_range"])
        bins = workloads.grid_bins(workloads.ENVELOPE)
        assert all(lo <= g <= hi for g, (lo, hi) in zip(gammas, bins))


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "not found" in proc.stderr
