"""Command-line entry point.

Subcommands: assemble, verify, bound, constants, lemmas, sweep, report.
All JSON output is serialized with sorted keys and compact separators and all
CSV columns are fixed, so identical configurations produce byte-identical
files.  Exit codes follow the error taxonomy: 0 success, 1 invariant
violation, 2 configuration error, 3 numerical failure (including unconverged
reports).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import constants as con
from . import models as mod
from .basis import BasisSpec, build_basis
from .config import RunConfig, parse_config
from .container import save_container
from .errors import ConfigError, HypocoError
from .operators import ModelSpec, assemble_model, diagonal, verify_structural_assumptions

CSV_COLUMNS = ("model", "gamma", "epsilon", "d", "n_q", "n_p",
               "s", "a", "bound", "exact", "margin", "converged")


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(text: str, path: str | None) -> None:
    """JSON goes to stdout, and with ``--json PATH`` to that file as well."""
    if path is not None:
        _emit(text, path)
    sys.stdout.write(text)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(rows) -> str:
    lines = [CSV_COLUMNS] + [[_fmt(row[c]) for c in CSV_COLUMNS] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


#: argparse dest of each flag that overrides a config key -> that key
_OVERRIDES = {"model": "model", "gamma": "gamma", "epsilon_range": "epsilon",
              "seed": "seed", "out": "out"}


def _load_config(args) -> RunConfig:
    """The config file with the command line's overrides, validated as one."""
    if args.config is None:
        raise ConfigError(["--config is required for this subcommand"])
    for flag in ("out", "json", "csv"):
        if getattr(args, flag, None) == "":
            raise ConfigError([f"--{flag} needs a path, got ''"])
    for flag in ("max_dim", "suite", "jobs"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ConfigError([f"--{flag.replace('_', '-')} must be >= 1, got {value}"])
    overrides = [(f"--{dest.replace('_', '-')}", key, value) for dest, key in _OVERRIDES.items()
                 if (value := getattr(args, dest, None)) is not None]
    config = parse_config(args.config, overrides)
    if getattr(args, "max_dim", None) is not None:
        os.environ["HYPOCO_MAX_DIM"] = str(args.max_dim)
    return config


def _basis_spec(config: RunConfig) -> BasisSpec:
    has_xi = config.model == "adaptive_langevin"
    return BasisSpec(d=config.d, n_q=config.n_q, n_p=config.n_p,
                     beta=config.beta, mass=config.mass,
                     torus_length=config.torus_length,
                     has_xi=has_xi, n_xi=config.n_xi if has_xi else 0)


def _model_spec(config: RunConfig, gamma: float, epsilon: float | None) -> ModelSpec:
    return ModelSpec(model=config.model, gamma=float(gamma), beta=config.beta,
                     mass=config.mass, d=config.d,
                     epsilon=None if epsilon is None else float(epsilon))


def _first_point(config: RunConfig) -> tuple[float, float | None]:
    gamma = float(config.gammas[0])
    epsilon = None if config.epsilons is None else float(config.epsilons[0])
    return gamma, epsilon


def _assemble(config: RunConfig):
    gamma, epsilon = _first_point(config)
    basis = build_basis(_basis_spec(config), potential=config.potential())
    ops = assemble_model(basis, _model_spec(config, gamma, epsilon))
    return basis, ops


def cmd_assemble(args) -> int:
    config = _load_config(args)
    basis, ops = _assemble(config)
    summary = {
        "model": ops.model.model, "dim": ops.dim,
        "dim0": int(len(ops.idx0)), "dim_plus": int(len(ops.idx_plus)),
        "nnz": {"A": int(ops.A.nnz), "S": int(np.count_nonzero(ops.S)),
                "L": int(ops.L.nnz)},
        "s_analytic": ops.model.s_analytic,
    }
    sys.stdout.write(_json_dumps(summary))
    if config.out:
        meta = {"model": ops.model.model, "gamma": ops.model.gamma,
                "epsilon": ops.model.epsilon, "beta": config.beta,
                "mass": config.mass, "d": config.d, "n_q": config.n_q,
                "n_p": config.n_p,
                "n_xi": config.n_xi if basis.spec.has_xi else 0,
                "potential": config.potential_text, "dim": ops.dim}
        save_container(config.out, {
            "A": ops.A, "S": diagonal(ops.S), "L": ops.L,
            "pi0": diagonal(ops.pi0), "reversal": diagonal(ops.reversal),
        }, meta=meta)
        sys.stdout.write(f"wrote {config.out}\n")
    return 0


def cmd_verify(args) -> int:
    config = _load_config(args)
    _, ops = _assemble(config)
    report = verify_structural_assumptions(ops, tol=config.tol_identity)
    sys.stdout.write(report.table() + "\n")
    if args.json:
        _emit(_json_dumps({
            "model": ops.model.model,
            "passed": report.passed,
            "residuals": {k: float(v) for k, v in report.residuals.items()},
            "s_analytic": report.s_analytic, "s_numeric": report.s_numeric,
        }), args.json)
    if not report.passed:
        sys.stderr.write("structural assumption check failed\n")
        return 1
    return 0


def _bound_report(config: RunConfig, gamma: float, epsilon: float | None, constants: dict):
    return mod.model_bound_report(
        _model_spec(config, gamma, epsilon), _basis_spec(config),
        potential=config.potential(), constants=constants,
        rel_tol=config.conv_tol, tol_identity=config.tol_identity,
        rank_tol=config.rank_tol)


def _config_constants(config: RunConfig) -> dict:
    return con.constants_summary(
        config.potential(), config.beta, config.mass, config.d,
        n_q=con.constants_cutoff(config.n_q), torus_length=config.torus_length,
        c2=config.c2)


def cmd_bound(args) -> int:
    config = _load_config(args)
    gamma, epsilon = _first_point(config)
    report = _bound_report(config, gamma, epsilon, _config_constants(config))
    _emit_json(report.to_json() + "\n", args.json)
    return _verdict([_csv_row(config, gamma, epsilon, report)])


def cmd_constants(args) -> int:
    config = _load_config(args)
    _emit_json(_json_dumps(_config_constants(config)), args.json)
    return 0


def cmd_lemmas(args) -> int:
    config = _load_config(args)
    potential = config.potential()
    suite = args.suite
    rng = np.random.default_rng(config.seed)
    size = (2 * config.n_q + 1) ** config.d
    growth = con.estimate_growth_constants(potential, config.beta, config.d,
                                           torus_length=config.torus_length,
                                           c2=config.c2)
    if potential.is_zero:
        case, params = "convex", {}
    else:
        case = "hessian_lower_bound"
        params = {"K": con.estimate_hessian_K(potential, config.d,
                                              torus_length=config.torus_length)}
    villani = controlh2 = bochner = 0.0
    for _ in range(suite):
        phi = rng.standard_normal(size)
        villani = max(villani, con.check_villani_lemma(
            phi, potential, config.beta, config.d, growth.c1,
            torus_length=config.torus_length))
        u = rng.standard_normal(size)
        controlh2 = max(controlh2, con.check_controlH2(
            u, potential, config.beta, case, params=params, d=config.d,
            torus_length=config.torus_length))
        bochner = max(bochner, con.check_bochner(
            u, potential, config.beta, d=config.d,
            torus_length=config.torus_length))
    out = {"suite": suite, "seed": config.seed, "case": case,
           "villani_max_ratio": villani, "controlH2_max_ratio": controlh2,
           "bochner_max_residual": bochner, "c1": growth.c1}
    _emit_json(_json_dumps(out), args.json)
    return 0


def _csv_row(config: RunConfig, gamma: float, epsilon: float | None, report) -> dict:
    return {"model": config.model, "gamma": float(gamma), "epsilon": epsilon,
            "d": config.d, "n_q": config.n_q, "n_p": config.n_p,
            "s": report.s, "a": report.a, "bound": report.bound,
            "exact": report.exact, "margin": report.margin,
            "converged": report.converged}


def _verdict(rows) -> int:
    """1 if a converged point has bound < exact (the thermostat's margin is not
    judged), else 3 if a point is unconverged, else 0; explained on stderr."""
    failed = [r for r in rows if r["converged"] and r["margin"] < 1.0
              and r["model"] != "adaptive_langevin"]
    for r in failed:
        sys.stderr.write(f"margin {r['margin']:.6f} < 1 on a converged point "
                         f"(gamma={r['gamma']!r}, epsilon={r['epsilon']!r})\n")
    if failed:
        return 1
    unconverged = sum(not r["converged"] for r in rows)
    if unconverged:
        sys.stderr.write(f"{unconverged} of {len(rows)} points not converged "
                         "under cutoff doubling\n")
        return 3
    return 0


def _sweep_worker(task) -> tuple[dict, str]:
    """Point ``(config, gamma, epsilon, constants)``: its CSV row and ``--json`` line."""
    config, gamma, epsilon, constants = task
    report = _bound_report(config, gamma, epsilon, constants=constants)
    document = {"gamma": gamma, "epsilon": epsilon,
                "bound": report.to_json_dict(), "details": report.details}
    return _csv_row(config, gamma, epsilon, report), _json_dumps(document)


def _config_payload(config: RunConfig) -> dict:
    return {f: getattr(config, f) for f in (
        "model", "d", "beta", "mass", "potential_text", "torus_length",
        "n_q", "n_p", "n_xi", "tol_identity", "conv_tol", "rank_tol", "seed")}


def cmd_sweep(args) -> int:
    config = _load_config(args)
    epsilons = [None] if config.epsilons is None else list(config.epsilons)
    constants = _config_constants(config)
    tasks = [(config, float(g), None if e is None else float(e), constants)
             for g in config.gammas for e in epsilons]
    workers = min(args.jobs, len(tasks))  # the pool forks them all at its first submit
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_sweep_worker, tasks))
    else:
        points = [_sweep_worker(t) for t in tasks]
    rows = [row for row, _ in points]
    _emit(_csv_text(rows), args.csv)
    if args.csv:
        sys.stdout.write(f"wrote {args.csv} ({len(rows)} rows)\n")
    if args.json:
        _emit("".join(line for _, line in points), args.json)
    return _verdict(rows)


def cmd_report(args) -> int:
    config = _load_config(args)
    gamma, epsilon = _first_point(config)
    constants = _config_constants(config)
    bound = _bound_report(config, gamma, epsilon, constants=constants)
    verify = bound.assumptions
    document = {
        "config": {**_config_payload(config),
                   "gamma": gamma, "epsilon": epsilon},
        "assumptions": {
            "passed": verify.passed,
            "residuals": {k: float(v) for k, v in verify.residuals.items()},
            "s_numeric": verify.s_numeric, "s_analytic": verify.s_analytic,
        },
        "constants": constants,
        "bound": bound.to_json_dict(),
        "seed": config.seed,
    }
    _emit_json(_json_dumps(document), args.json)
    rows = [_csv_row(config, gamma, epsilon, bound)]
    if args.csv:
        _emit(_csv_text(rows), args.csv)
    return _verdict(rows)


#: every option of the CLI; ``_COMMANDS`` registers each only where it is read
_FLAGS = {
    "--config": {"help": "key=value config file"},
    "--model": {"help": "override the configured model"},
    "--gamma": {"help": "value or range start:stop:logN|linN"},
    "--epsilon-range": {"help": "value or range for the thermostat parameter"},
    "--seed": {"help": "override the configured seed"},
    "--max-dim": {"type": int, "help": "override the basis dimension guard"},
    "--out": {"help": "write the assembled operators to this container"},
    "--json": {"help": "write JSON output to this path (sweep: one line per point)"},
    "--jobs": {"type": int, "default": 1, "help": "parallel workers for sweep points"},
    "--csv": {"help": "write CSV output to this path"},
    "--suite": {"type": int, "default": 100,
                "help": "number of random functions per lemma"},
}

_POINT = ("--model", "--gamma", "--epsilon-range", "--max-dim")

_COMMANDS = (
    ("assemble", cmd_assemble, (*_POINT, "--out")),
    ("verify", cmd_verify, (*_POINT, "--json")),
    ("bound", cmd_bound, (*_POINT, "--json")),
    ("constants", cmd_constants, ("--max-dim", "--json")),
    ("lemmas", cmd_lemmas, ("--seed", "--suite", "--json")),
    ("sweep", cmd_sweep, (*_POINT, "--jobs", "--csv", "--json")),
    ("report", cmd_report, (*_POINT, "--seed", "--json", "--csv")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypoco",
        description="Kinetic-generator assembly, Schur-complement resolvent "
                    "bounds, and their verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, flags in _COMMANDS:
        p = sub.add_parser(name)
        for flag in ("--config", *flags):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    saved_max_dim = os.environ.get("HYPOCO_MAX_DIM")  # --max-dim sets it for this call
    try:
        return args.func(args)
    except HypocoError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"ConfigError: {exc}\n")
        return ConfigError([str(exc)]).exit_code
    finally:
        if saved_max_dim is None:
            os.environ.pop("HYPOCO_MAX_DIM", None)
        else:
            os.environ["HYPOCO_MAX_DIM"] = saved_max_dim


if __name__ == "__main__":
    sys.exit(main())
