"""Per-layer metrics of a traced pass and the check that each was reached.

Which end-to-end metric each layer should move, on which workload:

- schur: wall_s and point_tail_s on sweep_1d, wall_s on thermostat_cli;
  on tensor_2d only the iterative exact norm runs.
- models: point_p50_s and wall_s on sweep_1d and thermostat_cli.
- basis: wall_s and peak_rss_mb on tensor_2d; flat on sweep_1d.
- operators: wall_s and peak_rss_mb on tensor_2d; thermostat_cli through
  the report's second assembly.
- constants: wall_s and peak_rss_mb on tensor_2d.
- cli (with config): wall_s on thermostat_cli.

COVERAGE names, for each metric, the workloads on which the call behind it
must run at least once, so a binding wrapped in the wrong module fails
loudly instead of reading 0 s.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from spans import ancestor, calls, inclusive_seconds, layer_self_seconds

#: entries of L below this magnitude are rounding noise of the quadrature
NOISE = 1e-13

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("schur.self_s", "s"),
    ("schur.build_decomposition.s", "s"),
    ("schur.build_decomposition.calls", "count"),
    ("schur.schur_complement.s", "s"),
    ("schur.intermediate_norms.s", "s"),
    ("schur.exact_resolvent_norm.s", "s"),
    ("schur.exact_resolvent_norm.calls", "count"),
    ("schur.exact_resolvent_norm.iterative_calls", "count"),
    ("schur.dim_max", "count"),
    ("schur.lu_fill_nnz", "count"),
    ("models.self_s", "s"),
    ("models.model_bound_report.calls", "count"),
    ("models.evaluations", "count"),
    ("models.repeat_evaluations", "count"),
    ("models.norm_X_hamiltonian_squared.s", "s"),
    ("models.langevin_bound_general.s", "s"),
    ("models.rhmc_bound.s", "s"),
    ("models.adl_bound.s", "s"),
    ("models.adl_AstarA_residual.s", "s"),
    ("basis.self_s", "s"),
    ("basis.build_basis.s", "s"),
    ("basis.build_basis.calls", "count"),
    ("basis.build_basis.distinct", "count"),
    ("basis.phi_mb", "MB"),
    ("operators.self_s", "s"),
    ("operators.assemble_model.s", "s"),
    ("operators.assemble_model.calls", "count"),
    ("operators.verify_structural_assumptions.s", "s"),
    ("operators.verify_structural_assumptions.calls", "count"),
    ("operators.L_nnz", "count"),
    ("operators.L_nnz_noise", "count"),
    ("constants.self_s", "s"),
    ("constants.poincare_constant.s", "s"),
    ("constants.poincare_constant.calls", "count"),
    ("constants.poincare_dim", "count"),
    ("constants.constants_summary.s", "s"),
    ("cli.self_s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.calls", "count"),
    ("trace.wall_s", "s"),
]

_S, _T, _C = "sweep_1d", "tensor_2d", "thermostat_cli"
_ALL = (_S, _T, _C)

COVERAGE = {
    "schur.self_s": (_S, _C),
    "schur.build_decomposition.s": (_S, _C),
    "schur.build_decomposition.calls": (_S, _C),
    "schur.schur_complement.s": (_S, _C),
    "schur.intermediate_norms.s": (_C,),
    "schur.exact_resolvent_norm.s": _ALL,
    "schur.exact_resolvent_norm.calls": _ALL,
    "schur.exact_resolvent_norm.iterative_calls": (_T,),
    "schur.dim_max": _ALL,
    "schur.lu_fill_nnz": _ALL,
    "models.self_s": (_S, _C),
    "models.model_bound_report.calls": (_S, _C),
    "models.evaluations": (_S, _C),
    "models.repeat_evaluations": (_S,),
    "models.norm_X_hamiltonian_squared.s": (_S, _T),
    "models.langevin_bound_general.s": (_S,),
    "models.rhmc_bound.s": (_S,),
    "models.adl_bound.s": (_C,),
    "models.adl_AstarA_residual.s": (_C,),
    "basis.self_s": (_T,),
    "basis.build_basis.s": (_T,),
    "basis.build_basis.calls": (_T,),
    "basis.build_basis.distinct": (_T,),
    "basis.phi_mb": (_T,),
    "operators.self_s": (_T, _C),
    "operators.assemble_model.s": (_T, _C),
    "operators.assemble_model.calls": (_T, _C),
    "operators.verify_structural_assumptions.s": (_T, _C),
    "operators.verify_structural_assumptions.calls": (_T, _C),
    "operators.L_nnz": (_T,),
    "operators.L_nnz_noise": (_T,),
    "constants.self_s": (_T,),
    "constants.poincare_constant.s": (_T,),
    "constants.poincare_constant.calls": (_T,),
    "constants.poincare_dim": (_T,),
    # tensor_2d calls poincare_constant directly, never constants_summary
    "constants.constants_summary.s": (_S, _C),
    "cli.self_s": (_C,),
    "cli.main.s": (_C,),
    "cli.main.calls": (_C,),
    "trace.wall_s": _ALL,
}

#: the call count that shows a derived metric was measured.  A count that a
#: change may rightly bring to 0 (noise entries, repeated evaluations) is
#: covered by the call that measures it, not by its own value.
_EVIDENCE = {
    "schur.exact_resolvent_norm.iterative_calls": "schur.exact_resolvent_norm.iterative_calls",
    "schur.dim_max": "calls:schur.exact_resolvent_norm",
    "schur.lu_fill_nnz": "calls:schur.exact_resolvent_norm",
    "models.evaluations": "models.evaluations",
    "models.repeat_evaluations": "models.evaluations",
    "basis.build_basis.distinct": "calls:basis.build_basis",
    "basis.phi_mb": "calls:basis.build_basis",
    "operators.L_nnz": "calls:operators.assemble_model",
    "operators.L_nnz_noise": "calls:operators.assemble_model",
    "constants.poincare_dim": "calls:constants.poincare_constant",
    "trace.wall_s": "trace.wall_s",
}


# ---------------------------------------------------------------------------
# probes: attributes read from a wrapped call's arguments and result
# ---------------------------------------------------------------------------


def _basis_probe(args, basis):
    pot = args["potential"]
    key = (repr(args["spec"]), "0" if pot is None else pot.to_string())
    return {"key": key, "phi_bytes": int(basis.phi.nbytes)}


def _assemble_probe(args, ops):
    return {"L": ops.L}


def _exact_probe(args, result):
    mat = args["L"]
    n = mat.shape[0]
    method = args["method"]
    iterative = method == "iterative" or (method == "auto"
                                          and n >= args["dense_threshold"])
    return {"L": mat, "dim": n, "iterative": iterative}


PROBES = {
    "basis.build_basis": _basis_probe,
    "operators.assemble_model": _assemble_probe,
    "schur.exact_resolvent_norm": _exact_probe,
    "schur.build_decomposition": lambda args, dec: {"dim": int(dec.ops.dim)},
    "models.model_bound_report": lambda args, rep: {"model": repr(args["model"])},
    "constants.poincare_constant": lambda args, res: {"dim": int(len(res.eigenvector))},
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _largest(spans, name):
    """The matrix with the most stored entries among the spans' ``L``."""
    mats = [s.attrs["L"] for s in spans if s.name == name and "L" in s.attrs]
    return max(mats, key=lambda m: m.nnz, default=None)


def lu_fill(mat) -> int:
    """Stored entries of the sparse LU factors, as splu computes them."""
    lu = spla.splu(mat.tocsc())
    return int(lu.L.nnz + lu.U.nnz)


def per_layer_metrics(spans, wall_s: float) -> tuple[dict, dict]:
    """Per-layer metric values of one traced pass, and span call counts.

    Matrix statistics (nnz, noise, LU fill) are computed here, after the
    pass, so they fall outside every timed span.
    """
    by_id = {s.id: s for s in spans}
    selfs = layer_self_seconds(spans)
    m = {}
    for name, unit in PER_LAYER:
        stem = name.rsplit(".", 1)[0]
        if name.endswith(".self_s"):
            m[name] = selfs.get(stem, 0.0)
        elif name.endswith(".s"):
            m[name] = inclusive_seconds(spans, stem)
        elif name.endswith(".calls"):
            m[name] = calls(spans, stem)

    exact = [s for s in spans if s.name == "schur.exact_resolvent_norm"]
    m["schur.exact_resolvent_norm.iterative_calls"] = sum(
        1 for s in exact if s.attrs.get("iterative"))
    dims = [s.attrs["dim"] for s in spans
            if s.name in ("schur.exact_resolvent_norm", "schur.build_decomposition")]
    m["schur.dim_max"] = max(dims, default=0)
    largest = _largest(spans, "schur.exact_resolvent_norm")
    m["schur.lu_fill_nnz"] = lu_fill(largest) if largest is not None else 0

    seen, evaluations, repeats = set(), 0, 0
    builds = [s for s in spans if s.name == "basis.build_basis"]
    for s in builds:
        report = ancestor(s, by_id, "models.model_bound_report")
        if report is None:
            continue
        key = (report.attrs["model"],) + s.attrs["key"]
        evaluations += 1
        repeats += key in seen
        seen.add(key)
    m["models.evaluations"] = evaluations
    m["models.repeat_evaluations"] = repeats
    m["basis.build_basis.distinct"] = len({s.attrs["key"] for s in builds})
    m["basis.phi_mb"] = max((s.attrs["phi_bytes"] for s in builds), default=0) / 2**20

    big = _largest(spans, "operators.assemble_model")
    m["operators.L_nnz"] = int(big.nnz) if big is not None else 0
    m["operators.L_nnz_noise"] = (int(np.count_nonzero(np.abs(big.data) < NOISE))
                                  if big is not None else 0)
    m["constants.poincare_dim"] = max(
        (s.attrs["dim"] for s in spans if s.name == "constants.poincare_constant"),
        default=0)
    m["trace.wall_s"] = wall_s

    counts = {f"calls:{s.name}": 0 for s in spans}
    for s in spans:
        counts[f"calls:{s.name}"] += 1
        counts[f"layer:{s.layer}"] = counts.get(f"layer:{s.layer}", 0) + 1
    return m, counts


def evidence(metric: str, metrics: dict, counts: dict) -> float:
    """The count that shows ``metric`` was measured on this pass."""
    stem = metric.rsplit(".", 1)[0]
    if metric in _EVIDENCE:
        key = _EVIDENCE[metric]
        return counts.get(key, 0) if key.startswith("calls:") else metrics[key]
    if metric.endswith(".self_s"):
        return counts.get(f"layer:{stem}", 0)
    return counts.get(f"calls:{stem}", 0)


def coverage_problems(workload: str, metrics: dict, counts: dict) -> list[str]:
    """Metrics whose call never ran on a workload the map says they dominate."""
    return [f"coverage: {name} recorded no call on {workload}"
            for name, workloads in COVERAGE.items()
            if workload in workloads and not evidence(name, metrics, counts) > 0]
