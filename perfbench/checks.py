"""Correctness checks of a pass, so that a fast wrong answer counts as failed.

Three kinds of check run on every pass:

- invariants, at every seed: no exception (the program raises on a failed
  structural identity or on Schur-complement routes that disagree), margin
  >= 1 on every converged non-thermostat report, the d=2 vs d=1 relative
  differences < 0.05, and well-formed CLI output and exit codes;
- byte identity of CLI JSON/CSV between repeated commands and passes;
- at seed 0, stored reference values (bound, exact, margin, K^2, X^2, ...)
  within a relative tolerance of RTOL, and the n_p schedule of sweep_1d
  equal to where the acceptance ladder stops.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

#: relative tolerance against the stored seed-0 values.  BLAS builds and
#: thread counts move these values by far less (about 1e-12); a changed
#: algorithm that is still right should too.
RTOL = 1e-6
#: criterion 10's bound on the d=2 vs d=1 relative differences
TENSOR_RTOL = 0.05
#: criterion 7's bound on the RHMC collision-block residuals
RHMC_TOL = 1e-10

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

_SWEEP_KEYS = ("bound", "exact", "margin", "X2", "K_nu2", "converged", "n_p")
_TENSOR_KEYS = ("identities_passed", "X2", "K_nu2", "exact", "dim")
_REPORT_KEYS = ("s", "a", "bound", "exact", "margin", "converged")


def reference_values(workload: str, ops) -> dict:
    """The values of a pass that are stored at seed 0 and compared later."""
    out = {}
    for op in ops:
        v = op.values
        if workload == "sweep_1d":
            out[op.name] = {k: v[k] for k in _SWEEP_KEYS}
        elif workload == "tensor_2d":
            out[op.name] = {k: v[k] for k in _TENSOR_KEYS if k in v}
        elif op.name == "sweep":
            out[op.name] = {
                f"gamma={r['gamma']},epsilon={r['epsilon']}/{k}": _csv_value(r[k])
                for r in v["rows"] for k in ("bound", "exact", "margin", "converged")}
            out[op.name]["exit"] = v["exit"]
        else:
            doc = v["document"]
            out[op.name] = {k: doc["bound"][k] for k in _REPORT_KEYS}
            out[op.name]["K_nu2"] = doc["constants"]["K_nu2"]
            out[op.name]["exit"] = v["exit"]
    return out


def _csv_value(text):
    return text == "true" if text in ("true", "false") else float(text)


def _differs(expected, got, rtol=RTOL) -> bool:
    if isinstance(expected, bool) or isinstance(got, bool) or isinstance(expected, str):
        return expected != got
    if isinstance(expected, int) and isinstance(got, int):
        return expected != got
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return True
    return abs(got - expected) > rtol * abs(expected)


def compare_reference(expected: dict, got: dict, rtol=RTOL) -> list[tuple[str, str]]:
    """(op, message) for every stored value the pass does not reproduce."""
    problems = []
    for op_name, values in expected.items():
        if op_name not in got:
            problems.append((op_name, "missing from the pass"))
            continue
        for key, want in values.items():
            have = got[op_name].get(key)
            if _differs(want, have, rtol):
                problems.append((op_name, f"{key} = {have!r}, reference {want!r}"))
    return problems


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _sweep_problems(op, seed):
    v = op.values
    out = []
    for step in v["steps"]:
        if step["converged"] and step["margin"] < 1.0:
            out.append(f"converged at n_p={step['n_p']} with margin "
                       f"{step['margin']:.6f} < 1")
    if op.name.startswith("boltzmann_rhmc/"):
        if not v["norm_S21"] < RHMC_TOL:
            out.append(f"|S21| = {v['norm_S21']:.3e} >= {RHMC_TOL:g}")
        rel = abs(v["norm_S11"] - v["gamma"]) / max(v["gamma"], 1.0)
        if not rel < RHMC_TOL:
            out.append(f"|S11| - gamma = {rel:.3e} relative")
    if seed == 0:
        flags = [step["converged"] for step in v["steps"]]
        if not flags[-1] or any(flags[:-1]):
            out.append(f"seed-0 ladder converged at {flags}, not only at the last step")
    return out


def _tensor_problems(ops):
    from hypoco.models import corollary_bound

    v = {op.name: op.values for op in ops}
    out = []
    for name in ("d=1", "d=2"):
        if not v[name]["identities_passed"]:
            out.append((name, "structural identities failed"))
        exact = v[name]["exact"]
        if not (math.isfinite(exact) and exact > 0):
            out.append((name, f"exact norm {exact!r} is not finite and positive"))
    k2 = (v["d=1"]["K_nu2"], v["d=2"]["K_nu2"])
    x2 = (v["d=1"]["X2"], v["d=2"]["X2"])
    bound = tuple(corollary_bound(1.0, 1.0, 1.0, k, x) for k, x in zip(k2, x2))
    for name, (one, two) in (("K^2", k2), ("X^2", x2), ("bound", bound)):
        rel = abs(one - two) / abs(one)
        if not rel < TENSOR_RTOL:
            out.append(("d=2", f"{name} differs from d=1 by {rel:.3e} relative"))
    return out


def _grid(text):
    start, stop, count = text.split(":")
    return np.geomspace(float(start), float(stop), int(count[3:]))


def _thermostat_problems(ops, params):
    sweep, *reports = ops
    out = []
    v = sweep.values
    rows = v["rows"]
    want = {(g, e) for g in _grid(params["gamma_range"])
            for e in _grid(params["epsilon_range"])}
    got = {(float(r["gamma"]), float(r["epsilon"])) for r in rows}
    if len(rows) != len(want) or got != want:
        out.append(("sweep", f"rows cover {sorted(got)}, expected {sorted(want)}"))
    for r in rows:
        bound, exact, margin = (float(r[k]) for k in ("bound", "exact", "margin"))
        if not (bound > 0 and exact > 0 and math.isfinite(bound * exact)):
            out.append(("sweep", f"row {r} has a non-positive bound or exact norm"))
        elif abs(margin - bound / exact) > 1e-12 * margin:
            out.append(("sweep", f"row {r}: margin is not bound/exact"))
    unconverged = any(r["converged"] != "true" for r in rows)
    if v["exit"] != (3 if unconverged else 0):
        out.append(("sweep", f"exit {v['exit']} with unconverged={unconverged}: "
                             f"{v['stderr'].strip()}"))
    for op in reports:
        doc, bound = op.values["document"], op.values["document"]["bound"]
        if not doc["assumptions"]["passed"]:
            out.append((op.name, "structural identities failed"))
        if op.values["exit"] != (0 if bound["converged"] else 3):
            out.append((op.name, f"exit {op.values['exit']} with converged="
                                 f"{bound['converged']}: {op.values['stderr'].strip()}"))
        thermostat = doc["config"]["model"] == "adaptive_langevin"
        if bound["converged"] and not thermostat and bound["margin"] < 1.0:
            out.append((op.name, f"converged with margin {bound['margin']:.6f} < 1"))
    first, second = reports[1].values, reports[2].values
    for key in ("json_bytes", "csv_bytes"):
        if first[key] != second[key]:
            out.append((reports[2].name, f"{key[:-6].upper()} differs from the first run"))
    return out


def pass_fingerprint(workload: str, ops) -> bytes | None:
    """CLI output bytes of a pass; passes of one run must agree on them."""
    if workload != "thermostat_cli" or any(op.error for op in ops):
        return None
    return b"\0".join(op.values[k] for op in ops
                      for k in ("csv_bytes", "json_bytes") if k in op.values)


def check_pass(workload: str, seed: int, params: dict, ops,
               reference: dict | None) -> list[tuple[str, str]]:
    """(op, message) for every failed operation or broken check of one pass."""
    problems = invariant_problems(workload, seed, params, ops)
    if seed == 0:
        if reference is None:
            problems.append(("reference", f"no stored seed-0 values for {workload}"))
        else:
            problems += compare_reference(
                reference, reference_values(workload, [op for op in ops if not op.error]))
    return problems


def invariant_problems(workload: str, seed: int, params: dict, ops) -> list[tuple[str, str]]:
    """Errors and broken invariants of one pass; no reference values."""
    problems = [(op.name, op.error) for op in ops if op.error]
    done = [op for op in ops if not op.error]
    if workload == "sweep_1d":
        problems += [(op.name, msg) for op in done for msg in _sweep_problems(op, seed)]
    elif len(done) == len(ops):
        # the other workloads' checks compare operations with each other
        problems += (_tensor_problems(ops) if workload == "tensor_2d"
                     else _thermostat_problems(ops, params))
    return problems
