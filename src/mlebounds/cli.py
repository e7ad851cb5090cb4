"""Command-line front end: compute bounds, run simulations, emit the table.

Exit codes: 0 on success, 2 for argument/precondition errors (one-line
diagnostic on stderr), 3 for runtime failures.  Output formats: a human
table (default), CSV, or JSON; CSV and JSON serialize floats in shortest
round-trip form.  A call builds the one model it names with
:func:`~mlebounds.models.make_model`, whose constructor computes only the
model's constants from its shapes (gg's ln Gamma(d/p), normal-mean's
sigma^2 and sigma^3) and refuses shapes on which they fail: whether D is the identity
and whether the model is canonical are declared on it, not evaluated.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .bounds import (
    BoundBreakdown,
    _model_bound,
    ar_bound_canonical_expfam,
    ar_bound_exp_noncanonical,
    exp_canonical_bound,
    exp_noncanonical_bound,
    expfam_bound,
    gg_bound,
    reference_test_function,
)
from .errors import DomainError
from .models import GeneralizedGammaParams, make_model
from .moments import mse_closed_form
from .montecarlo import (
    SimulationConfig,
    SimulationResult,
    TABLE_SEED,
    _csv_line,
    _default_epsilon,
    result_rows_to_csv,
    result_rows_to_json,
    run_simulation,
    table1,
)

FORMULAS = (
    "theorem",
    "expfam",
    "gg",
    "exp-canonical",
    "exp-noncanonical",
    "ar-exp-noncanonical",
    "ar-canonical",
)

_MODEL_PARAM_FLAGS = ("d", "p", "alpha", "sigma", "mu")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing leaves the parser unchanged (each call gets a fresh namespace),
    so one instance serves every ``main`` call; it is not built at import
    so that importing the package stays cheap.  Flags must be spelled in
    full: an abbreviation such as ``--h`` would silently mean ``--help``.
    """
    parser = argparse.ArgumentParser(
        prog="mlebounds",
        description="Explicit normal-approximation bounds for MLEs, with a Monte Carlo check.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("human", "csv", "json"), default="human")
        p.add_argument("--out", default=None, help="write the report to this file instead of stdout")

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default=None, help="model id (e.g. exp-noncanonical, gg, weibull)")
        p.add_argument("--theta0", type=float, default=None)
        for name in _MODEL_PARAM_FLAGS:
            p.add_argument(f"--{name}", type=float, default=None)

    pb = add_parser("bound", help="evaluate one bound formula")
    pb.add_argument("--formula", choices=FORMULAS, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--epsilon-frac", type=float, default=0.5,
                    help="epsilon as a fraction of |theta0| (default 0.5; 1 at theta0 = 0)")
    add_model_flags(pb)
    add_common(pb)
    pb.set_defaults(func=cmd_bound)

    ps = add_parser("simulate", help="run one seeded simulation")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--trials", type=int, default=10000)
    ps.add_argument("--seed", type=int, default=0)
    add_model_flags(ps)
    add_common(ps)
    ps.set_defaults(func=cmd_simulate)

    pt = add_parser("table1", help="emit the bundled five-row verification table")
    pt.add_argument("--trials", type=int, default=10000)
    pt.add_argument("--seed", type=int, default=TABLE_SEED)
    add_common(pt)
    pt.set_defaults(func=cmd_table1)

    return parser


def _model_params(args) -> dict:
    return {
        name: getattr(args, name)
        for name in _MODEL_PARAM_FLAGS
        if getattr(args, name, None) is not None
    }


def _require(value, flag: str, context: str):
    if value is None:
        raise DomainError(f"{flag} is required for {context}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _terms(bd: BoundBreakdown, n: int) -> dict:
    terms = dataclasses.asdict(bd)
    return {"formula": terms.pop("formula_id"), "n": n, **terms}


def _report(fields: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(fields, indent=2) + "\n"
    if fmt == "csv":
        return f"{_csv_line(fields)}\n{_csv_line(fields.values())}\n"
    lines = [
        f"{key:<12} {value}" if key in ("formula", "n") else f"{key:<12} {value:.6g}"
        for key, value in fields.items()
    ]
    return "\n".join(lines) + "\n"


def cmd_bound(args) -> int:
    h = reference_test_function()
    n = args.n
    formula = args.formula

    if formula == "exp-canonical":
        fields = _terms(exp_canonical_bound(n, h), n)
    elif formula == "exp-noncanonical":
        fields = _terms(exp_noncanonical_bound(n, h), n)
    elif formula == "ar-exp-noncanonical":
        fields = {"formula": formula, "n": n, "total": ar_bound_exp_noncanonical(n, h)}
    elif formula == "gg":
        d = _require(args.d, "--d", "the gg formula")
        p = _require(args.p, "--p", "the gg formula")
        theta = args.theta0 if args.theta0 is not None else 1.0
        params = GeneralizedGammaParams(theta=theta, d=d, p=p)
        fields = _terms(gg_bound(n, params, h), n)
    else:
        model_id = _require(args.model, "--model", f"the {formula} formula")
        theta0 = _require(args.theta0, "--theta0", f"the {formula} formula")
        m = make_model(model_id, **_model_params(args))
        epsilon = _default_epsilon(theta0, args.epsilon_frac)
        mse = mse_closed_form(m, n, theta0)
        if formula == "ar-canonical":
            bd = ar_bound_canonical_expfam(m, theta0, n, epsilon, h, mse)
        elif formula == "expfam":
            bd = expfam_bound(m, theta0, n, epsilon, h, mse)
        else:  # the general theorem on the model's inputs: expfam's terms
            bd = _model_bound("theorem", m, theta0, n, epsilon, h, mse)
        fields = _terms(bd, n)

    _emit(_report(fields, args.format), args.out)
    return 0


def _rows_report(rows: list[SimulationResult], fmt: str) -> str:
    if fmt == "csv":
        return result_rows_to_csv(rows)
    if fmt == "json":
        return result_rows_to_json(rows)
    header = f"{'n':>8} {'empirical':>12} {'std_err':>12} {'new_bound':>12} {'ar_bound':>12}"
    lines = [header]
    for r in rows:
        ar = f"{r.bound_ar:.6g}" if r.bound_ar is not None else "-"
        lines.append(
            f"{r.config.n:>8} {r.empirical_distance:>12.6g} {r.standard_error:>12.6g} "
            f"{r.bound_new:>12.6g} {ar:>12}"
        )
    lines.append("")
    lines.append("3 d.p. view (bounds):")
    for r in rows:
        ar = f"{r.bound_ar:.3f}" if r.bound_ar is not None else "-"
        lines.append(f"{r.config.n:>8} new={r.bound_new:.3f} ar={ar}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    model_id = _require(args.model, "--model", "simulate")
    theta0 = _require(args.theta0, "--theta0", "simulate")
    config = SimulationConfig(
        model_id=model_id,
        theta0=theta0,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        h=reference_test_function(),
        model_params=_model_params(args),
    )
    row = run_simulation(config)
    _emit(_rows_report([row], args.format), args.out)
    return 0


def cmd_table1(args) -> int:
    rows = table1(trials=args.trials, seed=args.seed)
    _emit(_rows_report(rows, args.format), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a numerical failure, or anything unforeseen
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
