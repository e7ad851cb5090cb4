"""Pins of the seeded outputs, as float.hex.

Every output below is a deterministic function of its seed, so a change
that leaves the random stream and the arithmetic alone (a refactor, a
faster reduction) leaves each pin as it is.  The pins depend on numpy's
random streams (Philox and its gamma and normal samplers), which numpy may
change between versions, so a failure names the numpy that computed them
and the numpy running.  ``python tests/test_pins.py`` prints the current
values in the pins' format.
"""

import dataclasses

import numpy as np

from mlebounds import (
    SimulationConfig,
    make_model,
    mse_monte_carlo,
    reference_test_function,
    result_rows_to_csv,
    run_simulation,
    table1,
)

NUMPY_AT_PINNING = "2.4.6"

H = reference_test_function()

# Every built-in family, plus gg(1, 1) and Weibull(1), whose D is the
# identity and whose a = 1 respectively.
SIMULATIONS = [
    ("exp-canonical", {}, 1.3),
    ("exp-noncanonical", {}, 2.0),
    ("laplace", {}, 0.8),
    ("normal-mean", {"sigma": 1.5}, -0.4),
    ("normal-variance", {"mu": 0.5}, 1.7),
    ("weibull", {"alpha": 2.0}, 1.2),
    ("weibull", {"alpha": 1.0}, 1.2),
    ("gg", {"d": 2.0, "p": 1.5}, 0.9),
    ("gg", {"d": 1.0, "p": 1.0}, 0.9),
]

MSE_CASES = [("exp-canonical", {}, 1.3), ("gg", {"d": 2.0, "p": 1.5}, 0.9)]


def _hex(values) -> str:
    return " ".join("None" if v is None else float.hex(v) for v in values)


def simulation_outputs() -> dict:
    """Every float field of ``run_simulation``'s row, at n = 3 and 1000,
    5 000 trials and seed 7."""
    out = {}
    for model_id, params, theta0 in SIMULATIONS:
        for n in (3, 1000):
            row = run_simulation(SimulationConfig(model_id, theta0, n, 5000, 7, H, params))
            values = [getattr(row, f.name) for f in dataclasses.fields(row)
                      if f.compare and f.name != "config"]
            out[f"{model_id}{params} n={n}"] = _hex(values)
    return out


def mse_outputs() -> dict:
    """``mse_monte_carlo``'s value and standard error at n = 10, 5 000
    trials and seed 7."""
    out = {}
    for model_id, params, theta0 in MSE_CASES:
        est = mse_monte_carlo(make_model(model_id, **params), theta0, 10, 5000, 7)
        out[f"{model_id}{params}"] = _hex([est.value, est.standard_error])
    return out


def _mismatch(got: dict, pinned: dict) -> str:
    moved = sorted(k for k in pinned.keys() | got.keys() if got.get(k) != pinned.get(k))
    return (
        f"the seeded outputs of {moved} differ from their pins, which numpy "
        f"{NUMPY_AT_PINNING} computed; this is numpy {np.__version__}, whose random "
        "streams may differ"
    )


SIMULATION_PINS = {
    'exp-canonical{} n=3': (
        '0x1.971374ed113d0p-6 0x1.1152df130c025p-9 0x1.28a4d6c85f5bap+4 '
        '0x1.28a4d6c85f5bap+4 0x1.8407d1ba691d3p-2 0x1.6a969a6b98096p-2 '
        '0x1.ba9cd78057177p+10 0x1.6fcb5a110b6e9p+9 0x1.d33f63f39e062p-1 '
        '0x1.ed2b2346ecc24p+3'
    ),
    'exp-canonical{} n=1000': (
        '0x1.5d0d21bdc9400p-11 0x1.8f53635c9b3aep-10 0x1.82ec811a5733fp-4 '
        '0x1.82ec811a5733fp-4 0x1.8407d1ba691d3p-2 0x1.84b6584b4801dp-2 '
        '0x1.da8096c7e5663p+10 0x1.853e6f600809fp+9 0x1.6822630198495p-5 '
        '0x1.fcbf659573deap-1'
    ),
    'exp-noncanonical{} n=3': (
        '0x1.e4f638081f540p-8 0x1.7a0593f8447f0p-10 0x1.2bab78fa75678p-1 '
        '0x1.9e69fa432c35ap+4 0x1.8407d1ba691d3p-2 0x1.8b9baa9a899a8p-2 '
        '0x1.e2eb85c1a4f92p+10 0x1.8f2084974a277p+9 -0x1.cde6d30c9be41p-7 '
        '0x1.ef6285775a3f8p-1'
    ),
    'exp-noncanonical{} n=1000': (
        '0x1.b1f4cc299a200p-11 0x1.8e5765851e6bdp-10 0x1.069e125d850ddp-5 '
        '0x1.0ecd25bfa94e4p+0 0x1.8407d1ba691d3p-2 0x1.84e0cc207dea4p-2 '
        '0x1.dab4692da9b47p+10 0x1.8568954bf3d20p+9 -0x1.a0b2e95520eb7p-7 '
        '0x1.f8873160d0977p-1'
    ),
    'laplace{} n=3': (
        '0x1.e4f638081f540p-8 0x1.7a0593f8447e8p-10 0x1.2bab78fa75677p-1 '
        'None 0x1.8407d1ba691d3p-2 0x1.8b9baa9a899a8p-2 '
        '0x1.e2eb85c1a4f92p+10 0x1.8f2084974a276p+9 -0x1.cde6d30c9be42p-7 '
        '0x1.ef6285775a3fdp-1'
    ),
    'laplace{} n=1000': (
        '0x1.b1f4cc299a000p-11 0x1.8e5765851e6cbp-10 0x1.069e125d850ddp-5 '
        'None 0x1.8407d1ba691d3p-2 0x1.84e0cc207dea3p-2 '
        '0x1.dab4692da9b46p+10 0x1.8568954bf3d20p+9 -0x1.a0b2e95520e80p-7 '
        '0x1.f8873160d0979p-1'
    ),
    "normal-mean{'sigma': 1.5} n=3": (
        '0x1.95d1b59ad5000p-12 0x1.92f7a2d001538p-10 0x1.e82d84911616ap-2 '
        'None 0x1.8407d1ba691d3p-2 0x1.846d4627cfd27p-2 '
        '0x1.da27642399306p+10 0x1.853f1155ac3f9p+9 -0x1.d4b43ea9ad085p-9 '
        '0x1.02b0ae69c77c7p+0'
    ),
    "normal-mean{'sigma': 1.5} n=1000": (
        '0x1.95d1b59ad5000p-12 0x1.92f7a2d001538p-10 0x1.abd14dbf231e8p-6 '
        'None 0x1.8407d1ba691d3p-2 0x1.846d4627cfd27p-2 '
        '0x1.da27642399306p+10 0x1.853f1155ac3f9p+9 -0x1.d4b43ea9ad042p-9 '
        '0x1.02b0ae69c77c7p+0'
    ),
    "normal-variance{'mu': 0.5} n=3": (
        '0x1.b5aef82a6c760p-7 0x1.6d4e7caf2f321p-10 0x1.585caccbb3737p-1 '
        'None 0x1.8407d1ba691d3p-2 0x1.91b5497bbc80ep-2 '
        '0x1.ea5dcc338b9b5p+10 0x1.99010bb6be50ap+9 -0x1.9b9123e75d546p-7 '
        '0x1.edb6cad3108a2p-1'
    ),
    "normal-variance{'mu': 0.5} n=1000": (
        '0x1.b7eaad6d2f600p-11 0x1.8e40622ceadedp-10 0x1.2dc8a3a0d33afp-5 '
        'None 0x1.8407d1ba691d3p-2 0x1.84e3c7111fb4ep-2 '
        '0x1.dab80c8067345p+10 0x1.856ac6914d5e9p+9 -0x1.a2ad222113326p-7 '
        '0x1.f86718a3bb284p-1'
    ),
    "weibull{'alpha': 2.0} n=3": (
        '0x1.0494aa139c000p-11 0x1.857d08b588e85p-10 0x1.4fbb8ec8d2b2ep+0 '
        'None 0x1.8407d1ba691d3p-2 0x1.848a1c0f72eb3p-2 '
        '0x1.da4a9740dbc81p+10 0x1.8383308f0658cp+9 -0x1.383366049662bp-3 '
        '0x1.eabecaee27958p-1'
    ),
    "weibull{'alpha': 2.0} n=1000": (
        '0x1.9f36cb8e58000p-11 0x1.8e74a529e10b0p-10 0x1.c327a779f7f4cp-5 '
        'None 0x1.8407d1ba691d3p-2 0x1.84d76d2030493p-2 '
        '0x1.daa8f8b5caf15p+10 0x1.855b720475e51p+9 -0x1.501627ed37529p-6 '
        '0x1.f8ecde0658b48p-1'
    ),
    "weibull{'alpha': 1.0} n=3": (
        '0x1.e4f638081f540p-8 0x1.7a0593f8447f0p-10 0x1.e87db3cf9fbbdp-1 '
        'None 0x1.8407d1ba691d3p-2 0x1.8b9baa9a899a8p-2 '
        '0x1.e2eb85c1a4f92p+10 0x1.8f2084974a277p+9 -0x1.cde6d30c9be3cp-7 '
        '0x1.ef6285775a3fbp-1'
    ),
    "weibull{'alpha': 1.0} n=1000": (
        '0x1.b1f4cc299a000p-11 0x1.8e5765851e6cbp-10 0x1.ac1792ec162d2p-5 '
        'None 0x1.8407d1ba691d3p-2 0x1.84e0cc207dea3p-2 '
        '0x1.dab4692da9b46p+10 0x1.8568954bf3d20p+9 -0x1.a0b2e95520eb2p-7 '
        '0x1.f8873160d0979p-1'
    ),
    "gg{'d': 2.0, 'p': 1.5} n=3": (
        '0x1.59dbbb2404680p-9 0x1.8167feb9e84acp-10 0x1.5235ed30d8c5fp+0 '
        'None 0x1.8407d1ba691d3p-2 0x1.86bb8930b1260p-2 '
        '0x1.dcf7ecf7f03eep+10 0x1.87030236eaca0p+9 -0x1.70d89a9ae23fep-4 '
        '0x1.e2955398ef8f4p-1'
    ),
    "gg{'d': 2.0, 'p': 1.5} n=1000": (
        '0x1.a6b0621460000p-11 0x1.8e6c3c4c2499fp-10 0x1.9ba643a5caaf0p-5 '
        'None 0x1.8407d1ba691d3p-2 0x1.84db29eb734d3p-2 '
        '0x1.daad88abea3fbp+10 0x1.8561281544653p+9 -0x1.19c4dfeb9ffe7p-6 '
        '0x1.f8c4864b309cep-1'
    ),
    "gg{'d': 1.0, 'p': 1.0} n=3": (
        '0x1.e4f638081f540p-8 0x1.7a0593f8447f0p-10 0x1.e87db3cf9fbc0p-1 '
        'None 0x1.8407d1ba691d3p-2 0x1.8b9baa9a899a8p-2 '
        '0x1.e2eb85c1a4f92p+10 0x1.8f2084974a277p+9 -0x1.cde6d30c9be39p-7 '
        '0x1.ef6285775a3fbp-1'
    ),
    "gg{'d': 1.0, 'p': 1.0} n=1000": (
        '0x1.b1f4cc299a000p-11 0x1.8e5765851e6cbp-10 0x1.ac1792ec162d5p-5 '
        'None 0x1.8407d1ba691d3p-2 0x1.84e0cc207dea3p-2 '
        '0x1.dab4692da9b46p+10 0x1.8568954bf3d20p+9 -0x1.a0b2e95520ef5p-7 '
        '0x1.f8873160d0979p-1'
    ),
}

MSE_PINS = {
    'exp-canonical{}': (
        '0x1.22d4b198d2604p-2 0x1.a0e2b53cbb150p-7'
    ),
    "gg{'d': 2.0, 'p': 1.5}": (
        '0x1.ad7cf9282ea0cp-6 0x1.13e020285e6c3p-11'
    ),
}

TABLE1_CSV = (
    'n,empirical_distance,standard_error,new_bound,ar_bound,seed,trials\n'
    '10,0.0015334104402562332,0.0033179444799857198,0.3205779635405446,11.888518681547621,99991,1000\n'
    '100,0.00012872103115035838,0.0033295372610988873,0.10137565324465374,3.4009463787661205,99991,1000\n'
    '1000,0.0002584428583617404,0.003323685915752107,0.03205779635405446,1.0578178017543047,99991,1000\n'
    '10000,0.0002735559749335592,0.0033211475612928316,0.010137565324465374,0.33336022834045237,99991,1000\n'
    '100000,0.00027573519806073366,0.0033202756175560585,0.003205779635405446,0.10532221360328253,99991,1000\n'
)


def test_run_simulation_is_pinned():
    got = simulation_outputs()
    assert got == SIMULATION_PINS, _mismatch(got, SIMULATION_PINS)


def test_mse_monte_carlo_is_pinned():
    got = mse_outputs()
    assert got == MSE_PINS, _mismatch(got, MSE_PINS)


def test_table1_csv_is_pinned():
    got = result_rows_to_csv(table1(trials=1000))
    assert got == TABLE1_CSV, _mismatch({"table1": got}, {"table1": TABLE1_CSV})


if __name__ == "__main__":
    import pprint

    pprint.pprint(simulation_outputs(), width=100)
    pprint.pprint(mse_outputs(), width=100)
    print(repr(result_rows_to_csv(table1(trials=1000))))
