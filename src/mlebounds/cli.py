"""Command-line front end: compute bounds, run simulations, emit the table.

Exit codes: 0 on success, 2 for argument/precondition errors (one-line
diagnostic on stderr), 3 for runtime failures.  Output formats: a human
table (default), CSV, or JSON; CSV and JSON serialize floats in shortest
round-trip form.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bounds import (
    BoundBreakdown,
    BoundInputs,
    _default_bound_moment,
    ar_bound_canonical_expfam,
    ar_bound_exp_noncanonical,
    exp_canonical_bound,
    exp_noncanonical_bound,
    expfam_bound,
    get_test_function,
    gg_bound,
    theorem_bound,
)
from .errors import DomainError, MLEBoundsError
from .models import (
    GeneralizedGammaParams,
    d_is_identity,
    d_prime,
    fisher_info,
    make_model,
    sup_abs_d_second,
)
from .moments import mse_closed_form
from .montecarlo import (
    SimulationConfig,
    SimulationResult,
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
    so that importing the package stays cheap.
    """
    parser = argparse.ArgumentParser(
        prog="mlebounds",
        description="Explicit normal-approximation bounds for MLEs, with a Monte Carlo check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("human", "csv", "json"), default="human")
        p.add_argument("--out", default=None, help="write the report to this file instead of stdout")
        p.add_argument("--h", dest="h_name", default="paper", help="test function registry id")

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default=None, help="model id (e.g. exp-noncanonical, gg, weibull)")
        p.add_argument("--theta0", type=float, default=None)
        p.add_argument("--d", type=float, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--mu", type=float, default=None)

    pb = sub.add_parser("bound", help="evaluate one bound formula")
    pb.add_argument("--formula", choices=FORMULAS, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--epsilon-frac", type=float, default=0.5,
                    help="epsilon as a fraction of |theta0| (default 0.5)")
    add_model_flags(pb)
    add_common(pb)
    pb.set_defaults(func=cmd_bound)

    ps = sub.add_parser("simulate", help="run one seeded simulation")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--trials", type=int, default=10000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--chunk-size", type=int, default=4096)
    add_model_flags(ps)
    add_common(ps)
    ps.set_defaults(func=cmd_simulate)

    pt = sub.add_parser("table1", help="emit the bundled five-row verification table")
    pt.add_argument("--trials", type=int, default=10000)
    pt.add_argument("--seed", type=int, default=None)
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


def _breakdown_report(bd: BoundBreakdown, n: int, fmt: str) -> str:
    terms = {
        "formula": bd.formula_id,
        "n": n,
        "stein_term": bd.stein_term,
        "tail_term": bd.tail_term,
        "taylor_term": bd.taylor_term,
        "total": bd.total,
    }
    if fmt == "json":
        return json.dumps(terms, indent=2) + "\n"
    if fmt == "csv":
        head = ",".join(terms)
        vals = ",".join(
            repr(v) if isinstance(v, float) else str(v) for v in terms.values()
        )
        return f"{head}\n{vals}\n"
    lines = [f"formula      {bd.formula_id}", f"n            {n}"]
    for key in ("stein_term", "tail_term", "taylor_term", "total"):
        lines.append(f"{key:<12} {terms[key]:.6g}")
    return "\n".join(lines) + "\n"


def _scalar_report(formula: str, n: int, total: float, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"formula": formula, "n": n, "total": total}, indent=2) + "\n"
    if fmt == "csv":
        return f"formula,n,total\n{formula},{n},{total!r}\n"
    return f"formula      {formula}\nn            {n}\ntotal        {total:.6g}\n"


def cmd_bound(args) -> int:
    h = get_test_function(args.h_name)
    n = args.n
    formula = args.formula

    if formula == "exp-canonical":
        return_text = _breakdown_report(exp_canonical_bound(n, h), n, args.format)
    elif formula == "exp-noncanonical":
        return_text = _breakdown_report(exp_noncanonical_bound(n, h), n, args.format)
    elif formula == "ar-exp-noncanonical":
        return_text = _scalar_report(formula, n, ar_bound_exp_noncanonical(n, h), args.format)
    elif formula == "gg":
        d = _require(args.d, "--d", "the gg formula")
        p = _require(args.p, "--p", "the gg formula")
        theta = args.theta0 if args.theta0 is not None else 1.0
        params = GeneralizedGammaParams(theta=theta, d=d, p=p)
        return_text = _breakdown_report(gg_bound(n, params, h), n, args.format)
    else:
        model_id = _require(args.model, "--model", f"the {formula} formula")
        theta0 = _require(args.theta0, "--theta0", f"the {formula} formula")
        m = make_model(model_id, **_model_params(args))
        epsilon = args.epsilon_frac * abs(theta0)
        mse = mse_closed_form(m, n, theta0)
        if formula == "expfam":
            bd = expfam_bound(m, theta0, n, epsilon, h, mse)
        elif formula == "ar-canonical":
            bd = ar_bound_canonical_expfam(m, theta0, n, epsilon, h, mse)
        else:  # theorem: assemble the raw inputs explicitly
            identity = d_is_identity(m)
            inputs = BoundInputs(
                n=n,
                theta0=theta0,
                epsilon=epsilon,
                fisher=fisher_info(m, theta0),
                q_prime_abs=abs(d_prime(m, theta0)),
                third_moment=_default_bound_moment(m, theta0),
                mse=mse,
                sup_q_second=0.0 if identity else sup_abs_d_second(m, theta0, epsilon),
                q_is_identity=identity,
                h=h,
            )
            bd = theorem_bound(inputs)
        return_text = _breakdown_report(bd, n, args.format)

    _emit(return_text, args.out)
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
        h=get_test_function(args.h_name),
        model_params=_model_params(args),
        chunk_size=args.chunk_size,
    )
    row = run_simulation(config)
    _emit(_rows_report([row], args.format), args.out)
    return 0


def cmd_table1(args) -> int:
    kwargs = {"trials": args.trials}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    rows = table1(**kwargs)
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
    except MLEBoundsError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything unforeseen is a runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
