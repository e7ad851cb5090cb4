"""The three workloads: their inputs, how one round runs, and their checks.

A workload is a list of operations built once from the seed; a round runs
every operation once, in order, and every run repeats whole rounds.  An
operation calls the program through module attributes at call time, so
the tracer's wrappers see it.  Checks run after the timed region and
compare each output with :mod:`oracle` or with a property the method must
have.  A check returns the problems it found (none when all hold) and the
operations that fail by a known fault, by index, with the fault's name;
every round repeats the first, so they fail in every round.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

# The fault that makes the numpy-integer copies of the certify requests
# fail: the `isinstance(n, int)` checks reject numpy integers.
INT64_FAULT = "numpy-int64-n"
# The fault that makes the pinned gg and Weibull requests fail:
# `moments.gg_mse_factor` passes the rounded float z + 1/p to
# `log_gamma_diff`, so when 1/p is not a power of two the MSE factor loses
# its digits as n grows, and at n = 1e9 it is negative.
ROUNDOFF_FAULT = "gg-mse-factor-roundoff"
# The pinned requests: the same families, theta0 and n on every seed, so
# they fail on every seed until the fault is mended.
ROUNDOFF_FAMILIES = (("gg", {"d": 2.0, "p": 1.5}), ("weibull", {"alpha": 1.5}))
ROUNDOFF_THETA = 1.5
ROUNDOFF_NS = (10**7, 10**9)

TRIAL_FAMILIES = (
    ("exp-canonical", {}),
    ("exp-noncanonical", {}),
    ("laplace", {}),
    ("normal-mean", {"sigma": 1.0}),
    ("normal-variance", {"mu": 0.0}),
    ("weibull", {"alpha": 2.0}),
    ("gg", {"d": 2.0, "p": 1.5}),
)

# Families of the seeded certify sweep that need no quadrature.  The
# weibull and gg shapes have 1/p a power of two, where gg_mse_factor is
# exact to roundoff; the other shapes are the pinned ROUNDOFF_FAMILIES.
CERTIFY_FAMILIES = (
    ("exp-canonical", {}),
    ("exp-noncanonical", {}),
    ("laplace", {}),
    ("normal-mean", {"sigma": 1.0}),
    ("normal-mean", {"sigma": 2.0}),
    ("weibull", {"alpha": 2.0}),
    ("weibull", {"alpha": 4.0}),
    ("gg", {"d": 3.0, "p": 2.0}),
    ("gg", {"d": 2.0, "p": 0.5}),
    ("gg", {"d": 1.5, "p": 1.0}),
)
GG_CLOSED_SHAPES = ((3.0, 2.0), (2.0, 0.5), (1.5, 1.0), (1.0, 1.0))
NORMAL_VARIANCE = ("normal-variance", {"mu": 0.0})
GG_QUADRATURE = ("gg", {"d": 2.0, "p": 1.5})
# Closed forms that take n alone.
SCALE_FREE_FORMULAS = ("exp-canonical", "exp-noncanonical", "ar-exp-noncanonical")


def family_key(model_id: str, params: dict) -> tuple:
    return (model_id, tuple(sorted(params.items())))


def all_family_keys() -> list[tuple]:
    keys = []
    for model_id, params in (TRIAL_FAMILIES + CERTIFY_FAMILIES + ROUNDOFF_FAMILIES
                              + (NORMAL_VARIANCE, GG_QUADRATURE)):
        key = family_key(model_id, params)
        if key not in keys:
            keys.append(key)
    return keys


@dataclass(frozen=True)
class Sizes:
    table1_trials: int = 10_000
    heavy_trials: int = 100_000
    heavy_n: tuple = (3, 8)
    certify_ns: int = 4


FULL = Sizes()
SMOKE = Sizes(table1_trials=1000, heavy_trials=2000, certify_ns=2)


@dataclass
class Env:
    """The program's modules and the objects built during set-up."""

    mb: object
    h: object
    models: dict


@dataclass
class Op:
    kind: str
    key: tuple
    call: Callable[[], object]
    work: int = 1
    fault: str | None = None  # the known fault this operation fails by, if any
    twin: Callable[[], object] | None = None


@dataclass
class Outcome:
    start: float
    end: float
    value: object = None
    error: BaseException | None = None
    seconds: float = 0.0  # end - start, less any probe time inside


def run_round(ops: list[Op]) -> list[Outcome]:
    out = []
    for op in ops:
        start = time.perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # recorded and judged by the checks
            out.append(Outcome(start, time.perf_counter(), error=exc))
        else:
            out.append(Outcome(start, time.perf_counter(), value))
    return out


def warm_up(env: Env) -> None:
    """One small call into every layer, so that lazy set-up is done before
    timing and the traced run reaches every layer on every workload."""
    mc = env.mb.montecarlo
    cfg = mc.SimulationConfig("exp-canonical", 1.0, 3, 64, 1, env.h)
    mc.run_simulation(cfg)
    _cli(env, ["bound", "--formula", "expfam", "--model", "exp-canonical",
               "--theta0", "1.0", "--n", "10", "--format", "json"])


def _cli(env: Env, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = env.mb.cli.main(argv)
    return code, buf.getvalue()


def _theta(rng: random.Random, model_id: str) -> float:
    magnitude = rng.uniform(0.75, 3.0)
    if model_id == "normal-mean" and rng.random() < 0.5:
        return -magnitude
    return magnitude


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------


def table1_ops(env: Env, seed: int, sizes: Sizes) -> list[Op]:
    mc = env.mb.montecarlo
    trials = sizes.table1_trials
    work = trials * len(mc.TABLE_SAMPLE_SIZES)
    return [Op("table1", ("table1", trials), lambda: env.mb.montecarlo.table1(trials=trials), work)]


def trial_heavy_ops(env: Env, seed: int, sizes: Sizes) -> list[Op]:
    mc = env.mb.montecarlo
    rng = random.Random(seed)
    ops = []
    for model_id, params in TRIAL_FAMILIES:
        theta0 = _theta(rng, model_id)
        for n in sizes.heavy_n:
            cfg = mc.SimulationConfig(
                model_id, theta0, n, sizes.heavy_trials, rng.getrandbits(63), env.h, dict(params)
            )
            ops.append(Op("simulate", (model_id, params, theta0, n),
                          lambda cfg=cfg: env.mb.montecarlo.run_simulation(cfg), cfg.trials))
    return ops


def check_simulation(env: Env, r, model_id: str, params: dict, theta0: float, n: int) -> list[str]:
    where = f"simulate {model_id}{params} theta0={theta0} n={n}"
    problems = []
    ehz = oracle.expected_h_of_z()
    exact = oracle.expected_h_of_w(model_id, params, n)
    distance = abs(exact - ehz)
    trials = r.config.trials
    if abs(r.expected_h - ehz) > 1e-9:
        problems.append(f"{where}: E h(Z) {r.expected_h!r} against {ehz!r}")
    if r.empirical_distance != abs(r.mean_h - r.expected_h) or r.mean_h != r.sum_h / trials:
        problems.append(f"{where}: distance or mean does not follow from the sums")
    if not (r.standard_error > 0.0 and abs(r.mean_h - exact) <= 5.0 * r.standard_error):
        problems.append(
            f"{where}: mean h {r.mean_h!r} is more than 5 SE ({r.standard_error!r}) "
            f"from the exact E h(W) {exact!r}"
        )
    if model_id == "exp-noncanonical":
        expected_new = sum(oracle.exp_noncanonical_terms(n))
        expected_ar = oracle.ar_exp_noncanonical(n)
    elif model_id == "exp-canonical":
        expected_new = sum(oracle.exp_canonical_terms(n))
        expected_ar = expected_new
    else:
        stein, tail, taylor, _, _ = oracle.theorem_terms(model_id, params, theta0, n, abs(theta0) / 2.0)
        expected_new = stein + tail + taylor
        expected_ar = expected_new if oracle.canonical(model_id, params) else None
    if not math.isclose(r.bound_new, expected_new, rel_tol=1e-9):
        problems.append(f"{where}: new bound {r.bound_new!r}, paper formula gives {expected_new!r}")
    if (r.bound_ar is None) != (expected_ar is None) or (
        expected_ar is not None and not math.isclose(r.bound_ar, expected_ar, rel_tol=1e-9)
    ):
        problems.append(f"{where}: AR bound {r.bound_ar!r}, paper formula gives {expected_ar!r}")
    for label, bound in (("new", r.bound_new), ("AR", r.bound_ar)):
        if bound is not None and not bound >= distance:
            problems.append(f"{where}: {label} bound {bound!r} is below the exact distance {distance!r}")
    return problems


def _errors(ops: list[Op], first: list[Outcome]) -> list[str]:
    return [f"{op.kind} {op.key} failed: {o.error!r}" for op, o in zip(ops, first)
            if o.error is not None]


def check_table1(env: Env, ops: list[Op], first: list[Outcome]) -> tuple[list[str], dict]:
    errors = _errors(ops, first)
    if errors:
        return errors, {}
    mc = env.mb.montecarlo
    rows = first[0].value
    problems = []
    if [r.config.n for r in rows] != list(oracle.PUBLISHED_TABLE):
        return [f"table1: sample sizes {[r.config.n for r in rows]}"], {}
    for r in rows:
        c = r.config
        expected = ("exp-noncanonical", 2.0, mc.TABLE_SEED, ops[0].key[1])
        if (c.model_id, c.theta0, c.seed, c.trials) != expected:
            problems.append(f"table1: row n={c.n} has config {c}")
        problems += check_simulation(env, r, "exp-noncanonical", {}, 2.0, c.n)
        new, ar = oracle.PUBLISHED_TABLE[c.n]
        if not (oracle.matches_3dp(r.bound_new, new) and oracle.matches_3dp(r.bound_ar, ar)):
            problems.append(f"table1: n={c.n} bounds {r.bound_new!r}, {r.bound_ar!r} "
                            f"against published {new}, {ar}")
    again = env.mb.montecarlo.run_simulation(rows[0].config)
    if again != rows[0]:
        problems.append("table1: the n=10 row recomputed in the same run differs")
    return problems, {}


def check_trial_heavy(env: Env, ops: list[Op], first: list[Outcome]) -> tuple[list[str], dict]:
    errors = _errors(ops, first)
    if errors:
        return errors, {}
    problems = []
    for op, outcome in zip(ops, first):
        problems += check_simulation(env, outcome.value, *op.key)
    again = env.mb.montecarlo.run_simulation(first[0].value.config)
    if again != first[0].value:
        problems.append("trial-heavy: the first simulation recomputed in the same run differs")
    return problems, {}


# ---------------------------------------------------------------------------
# Certify
# ---------------------------------------------------------------------------


def _n_values(rng: random.Random, count: int) -> list[int]:
    """One n per equal slice of log10 n in [1, 9], so every seed spans 10..1e9."""
    return [int(round(10 ** (1.0 + 8.0 * (k + rng.random()) / count))) for k in range(count)]


def _model_call(env: Env, formula: str, model_id: str, params: dict, theta0: float, n) -> Callable:
    m = env.models[family_key(model_id, params)]
    eps = 0.5 * abs(theta0)
    h = env.h

    def expfam():
        mse = env.mb.moments.mse_closed_form(m, n, theta0)
        return env.mb.bounds.expfam_bound(m, theta0, n, eps, h, mse)

    def ar_canonical():
        mse = env.mb.moments.mse_closed_form(m, n, theta0)
        return env.mb.bounds.ar_bound_canonical_expfam(m, theta0, n, eps, h, mse)

    def theorem():
        # The general theorem from raw inputs, assembled as a library user
        # would; the gg and Weibull third moment is the paper's Holder bound.
        mo, md, bd = env.mb.moments, env.mb.models, env.mb.bounds
        mse = mo.mse_closed_form(m, n, theta0)
        identity = md.d_is_identity(m)
        if model_id in ("weibull", "gg"):
            d = params.get("d", params.get("alpha"))
            p = params.get("p", params.get("alpha"))
            third = mo.third_abs_moment_holder_gg(md.GeneralizedGammaParams(theta=theta0, d=d, p=p))
        else:
            third = mo.third_abs_moment(m, theta0)
        inputs = bd.BoundInputs(
            n=n,
            theta0=theta0,
            epsilon=eps,
            fisher=md.fisher_info(m, theta0),
            q_prime_abs=abs(md.d_prime(m, theta0)),
            third_moment=third,
            mse=mse,
            sup_q_second=0.0 if identity else md.sup_abs_d_second(m, theta0, eps),
            q_is_identity=identity,
            h=h,
        )
        return bd.theorem_bound(inputs)

    return {"expfam": expfam, "theorem": theorem, "ar-canonical": ar_canonical}[formula]


def _closed_call(env: Env, formula: str, n, shape=None) -> Callable:
    h = env.h
    if formula == "exp-canonical":
        return lambda: env.mb.bounds.exp_canonical_bound(n, h)
    if formula == "exp-noncanonical":
        return lambda: env.mb.bounds.exp_noncanonical_bound(n, h)
    if formula == "ar-exp-noncanonical":
        return lambda: env.mb.bounds.ar_bound_exp_noncanonical(n, h)
    theta, d, p = shape
    params = env.mb.models.GeneralizedGammaParams(theta=theta, d=d, p=p)
    return lambda: env.mb.bounds.gg_bound(n, params, h)


def _cli_argv(formula: str, key: tuple) -> list[str]:
    argv = ["bound", "--formula", formula, "--format", "json"]
    if formula in SCALE_FREE_FORMULAS:
        return argv + ["--n", str(key[0])]
    if formula == "gg":
        n, (theta, d, p) = key
        return argv + ["--n", str(n), "--theta0", repr(theta), "--d", repr(d), "--p", repr(p)]
    model_id, params, theta0, n = key
    argv += ["--model", model_id, "--theta0", repr(theta0), "--n", str(n)]
    for name, value in params.items():
        argv += [f"--{name}", repr(value)]
    return argv


def certify_ops(env: Env, seed: int, sizes: Sizes) -> list[Op]:
    rng = random.Random(seed)
    ns = _n_values(rng, sizes.certify_ns)
    # (formula, key, n, make) with make(n) -> the call; every library
    # request is also sent with n as a numpy integer.
    library: list[tuple[str, tuple, int, Callable[[object], Callable]]] = []

    for formula in SCALE_FREE_FORMULAS:
        for n in ns:
            library.append((formula, (n,), n, lambda n, f=formula: _closed_call(env, f, n)))
    for d, p in GG_CLOSED_SHAPES:
        shape = (rng.uniform(0.75, 3.0), d, p)
        for n in ns:
            library.append(("gg", (n, shape), n, lambda n, s=shape: _closed_call(env, "gg", n, s)))
    model_requests = []
    for model_id, params in CERTIFY_FAMILIES:
        formulas = ["expfam", "theorem"]
        if oracle.canonical(model_id, params):
            formulas.append("ar-canonical")
        for theta0 in (_theta(rng, model_id), _theta(rng, model_id)):
            model_requests += [(f, (model_id, params, theta0, n)) for n in ns for f in formulas]
    # Normal-variance bounds reach the third-moment quadrature on every call.
    nv_theta = rng.uniform(0.75, 3.0)
    model_requests += [(f, (*NORMAL_VARIANCE, nv_theta, ns[0])) for f in ("expfam", "theorem")]
    for formula, key in model_requests:
        library.append((formula, key, key[-1],
                        lambda n, f=formula, a=key[:3]: _model_call(env, f, *a, n)))

    ops = []
    for formula, key, n, make in library:
        ops.append(Op(formula, key, make(n)))
        ops.append(Op(formula, key, make(np.int64(n)), fault=INT64_FAULT, twin=make(n)))
    for model_id, params in ROUNDOFF_FAMILIES:
        for n in ROUNDOFF_NS:
            key = (model_id, params, ROUNDOFF_THETA, n)
            for formula in ("expfam", "theorem"):
                ops.append(Op(formula, key, _model_call(env, formula, *key), fault=ROUNDOFF_FAULT))
            if model_id == "gg":
                shape = (ROUNDOFF_THETA, params["d"], params["p"])
                ops.append(Op("gg", (n, shape), _closed_call(env, "gg", n, shape),
                              fault=ROUNDOFF_FAULT))

    h = env.h
    for _ in range(2):
        ops.append(Op("oracle-ehz", (), lambda: env.mb.moments.expected_h_of_z(h)))
    gg_theta = rng.uniform(1.0, 3.0)
    for (model_id, params), theta0 in ((NORMAL_VARIANCE, nv_theta), (GG_QUADRATURE, gg_theta)):
        m = env.models[family_key(model_id, params)]
        ops.append(Op("oracle-third", (model_id, params, theta0),
                      lambda m=m, t=theta0: env.mb.moments.third_abs_moment(m, t)))

    # One CLI request per formula, plus a few more families; one of them
    # takes the normal-variance quadrature path.
    cli_keys = [
        ("exp-canonical", (ns[0],)),
        ("exp-noncanonical", (ns[1 % len(ns)],)),
        ("ar-exp-noncanonical", (ns[-1],)),
        ("gg", (ns[-1], (rng.uniform(0.75, 3.0), *GG_CLOSED_SHAPES[0]))),
        ("expfam", ("exp-canonical", {}, rng.uniform(0.75, 3.0), ns[-1])),
        ("expfam", ("weibull", {"alpha": 2.0}, rng.uniform(0.75, 3.0), ns[0])),
        ("expfam", ("normal-mean", {"sigma": 2.0}, _theta(rng, "normal-mean"), ns[0])),
        ("expfam", (*NORMAL_VARIANCE, nv_theta, ns[-1])),
        ("theorem", ("gg", {"d": 3.0, "p": 2.0}, rng.uniform(0.75, 3.0), ns[-1])),
        ("theorem", ("laplace", {}, rng.uniform(0.75, 3.0), ns[0])),
        ("ar-canonical", ("normal-mean", {"sigma": 1.0}, _theta(rng, "normal-mean"), ns[-1])),
        ("ar-canonical", ("exp-canonical", {}, rng.uniform(0.75, 3.0), ns[0])),
    ]
    for formula, key in cli_keys:
        argv = _cli_argv(formula, key)
        if formula in SCALE_FREE_FORMULAS:
            twin = _closed_call(env, formula, key[0])
        elif formula == "gg":
            twin = _closed_call(env, "gg", key[0], key[1])
        else:
            twin = _model_call(env, formula, *key)
        ops.append(Op("cli", (formula, key), lambda argv=argv: _cli(env, argv), twin=twin))

    rng.shuffle(ops)
    return ops


def _check_breakdown(where: str, bd, formula_id: str, expected: tuple, distance: float) -> list[str]:
    """``expected`` is (stein, tail, taylor) from the paper's formula, with
    optional absolute tolerances for tail and taylor."""
    stein, tail, taylor, *tolerances = expected
    tail_tol, taylor_tol = tolerances or (0.0, 0.0)
    problems = []
    if bd.formula_id != formula_id:
        problems.append(f"{where}: formula id {bd.formula_id!r}")
    terms = (bd.stein_term, bd.tail_term, bd.taylor_term)
    if min(terms) < 0.0:
        problems.append(f"{where}: negative term in {terms!r}")
    if bd.total != bd.stein_term + bd.tail_term + bd.taylor_term:
        problems.append(f"{where}: total {bd.total!r} is not the sum of its terms")
    for label, got, want, tol in (("stein", bd.stein_term, stein, 0.0),
                                  ("tail", bd.tail_term, tail, tail_tol),
                                  ("taylor", bd.taylor_term, taylor, taylor_tol)):
        if abs(got - want) > 1e-9 * abs(want) + tol:
            problems.append(f"{where}: {label} term {got!r}, paper formula gives {want!r}")
    if not bd.total >= distance:
        problems.append(f"{where}: bound {bd.total!r} is below the exact distance {distance!r}")
    return problems


def _check_certificate(kind: str, key: tuple, value) -> list[str]:
    where = f"{kind} {key}"
    if kind == "exp-canonical":
        (n,) = key
        return _check_breakdown(where, value, kind, oracle.exp_canonical_terms(n),
                                oracle.exact_distance("exp-canonical", {}, n))
    if kind == "exp-noncanonical":
        (n,) = key
        return _check_breakdown(where, value, kind, oracle.exp_noncanonical_terms(n),
                                oracle.exact_distance("exp-noncanonical", {}, n))
    if kind == "ar-exp-noncanonical":
        (n,) = key
        want = oracle.ar_exp_noncanonical(n)
        problems = []
        if not math.isclose(value, want, rel_tol=1e-9):
            problems.append(f"{where}: {value!r}, paper formula gives {want!r}")
        if not value >= sum(oracle.exp_noncanonical_terms(n)):
            problems.append(f"{where}: AR bound {value!r} is below the new bound")
        return problems
    if kind == "gg":
        n, (theta, d, p) = key
        return _check_breakdown(where, value, "gg", oracle.gg_terms(n, d, p),
                                oracle.exact_distance("gg", {"d": d, "p": p}, n))
    model_id, params, theta0, n = key
    terms = oracle.theorem_terms(model_id, params, theta0, n, 0.5 * abs(theta0))
    return _check_breakdown(where, value, kind, terms, oracle.exact_distance(model_id, params, n))


def _check_op(op: Op, outcome: Outcome) -> list[str]:
    where = f"{op.kind} {op.key}"
    if outcome.error is not None:
        return [f"{where} failed: {outcome.error!r}"]
    value = outcome.value
    if op.fault == INT64_FAULT:
        # Once the fault is mended, numpy n must give exactly what int n gives.
        return [] if value == op.twin() else [f"{where}: numpy n gives another value than int n"]
    if op.kind == "oracle-ehz":
        if abs(value - oracle.expected_h_of_z()) > 1e-9:
            return [f"expected_h_of_z {value!r} against {oracle.expected_h_of_z()!r}"]
        return []
    if op.kind == "oracle-third":
        want = oracle.third_abs_moment(*op.key)
        if not math.isclose(value, want, rel_tol=1e-8):
            return [f"third_abs_moment {op.key}: {value!r} against {want!r}"]
        return []
    if op.kind == "cli":
        return _check_cli(op, value)
    return _check_certificate(op.kind, op.key, value)


def _shows_fault(env: Env, op: Op, outcome: Outcome) -> bool:
    """Whether the operation's known fault is present and explains its failure."""
    if op.fault == INT64_FAULT:
        error = outcome.error
        return type(error).__name__ == "DomainError" and "n must be" in str(error)
    if op.kind == "gg":
        n, (_, d, p) = op.key
    else:
        model_id, params, _, n = op.key
        d, p = oracle.gg_shapes(model_id, params)
    factor = env.mb.moments.gg_mse_factor(n, d, p)
    return abs(factor - oracle.gg_mse_factor(n, d, p)) > oracle.gg_factor_tolerance(n, d, p)


def check_certify(env: Env, ops: list[Op], first: list[Outcome]) -> tuple[list[str], dict]:
    problems = []
    failing = {}
    by_key: dict[str, dict[str, object]] = {}
    for i, (op, outcome) in enumerate(zip(ops, first)):
        found = _check_op(op, outcome)
        if found and op.fault is not None and _shows_fault(env, op, outcome):
            failing[i] = op.fault
            continue
        problems += found
        if not found and op.fault != INT64_FAULT and op.kind in ("expfam", "theorem", "ar-canonical"):
            by_key.setdefault(str(op.key), {})[op.kind] = outcome.value
    for key, results in by_key.items():
        expfam = results.get("expfam")
        if expfam is None:
            continue
        if "theorem" in results and results["theorem"].total != expfam.total:
            problems.append(f"{key}: theorem {results['theorem'].total!r} "
                            f"differs from expfam {expfam.total!r}")
        if "ar-canonical" in results and results["ar-canonical"].total != expfam.total:
            problems.append(f"{key}: ar-canonical differs from expfam in a canonical family")
    for n, (new, ar) in oracle.PUBLISHED_TABLE.items():
        got_new = env.mb.bounds.exp_noncanonical_bound(n, env.h).total
        got_ar = env.mb.bounds.ar_bound_exp_noncanonical(n, env.h)
        if not (oracle.matches_3dp(got_new, new) and oracle.matches_3dp(got_ar, ar)):
            problems.append(f"published table n={n}: {got_new!r}, {got_ar!r} against {new}, {ar}")
    return problems, failing


def _check_cli(op: Op, value) -> list[str]:
    formula, key = op.key
    code, text = value
    where = f"cli {formula} {key}"
    if code != 0:
        return [f"{where}: exit code {code}"]
    got = json.loads(text)
    want = op.twin()
    n = key[-1] if formula in ("expfam", "theorem", "ar-canonical") else key[0]
    if formula == "ar-exp-noncanonical":
        expected = {"formula": formula, "n": n, "total": want}
    else:
        expected = {"formula": want.formula_id, "n": n, "stein_term": want.stein_term,
                    "tail_term": want.tail_term, "taylor_term": want.taylor_term, "total": want.total}
    if got != expected:
        return [f"{where}: JSON {got} differs from the library value {expected}"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    check: Callable


WORKLOADS = {
    "table1": Workload("table1", table1_ops, check_table1),
    "trial-heavy": Workload("trial-heavy", trial_heavy_ops, check_trial_heavy),
    "certify": Workload("certify", certify_ops, check_certify),
}


def _comparable(value):
    """The value with each simulation's test function reduced to its name:
    table1 certifies a new TestFunction (a new lambda) on every call."""
    if isinstance(value, list):
        return [_comparable(v) for v in value]
    if hasattr(value, "config") and hasattr(value, "mean_h"):
        fields = dataclasses.asdict(value)
        fields["config"]["h"] = value.config.h.name
        fields.pop("elapsed_seconds")
        return fields
    return value


def check_repeat(ops: list[Op], first: list[Outcome], later: list[Outcome]) -> list[str]:
    """A later round must give exactly the outputs of the first."""
    problems = []
    for op, a, b in zip(ops, first, later):
        same = (_comparable(a.value) == _comparable(b.value)) and (
            (a.error is None) == (b.error is None)
            and (a.error is None or str(a.error) == str(b.error))
        )
        if not same:
            problems.append(f"{op.kind} {op.key} differs from the first round")
    return problems
