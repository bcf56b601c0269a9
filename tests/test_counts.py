import pytest

from divisorlab import construction, exp_sums, summation_formulas as smf
from divisorlab import theta_transform, verify, voronoi
from divisorlab.descriptors import ConstantFn, PowerFn
from divisorlab.errors import DomainError

SPEC = smf.AveragedSumSpec(a=3.1, b=5.2, h0=0.05)

CALLS = {
    "fourier_sum": lambda: smf.fourier_sum(PowerFn(2.0), 0.5, 10.5, 0),
    "sigma0": lambda: smf.sigma0(PowerFn(2.0), 0.5, 0),
    "riemann-nodes": lambda: smf.averaged_divisor_sum_riemann(SPEC, nodes=0),
    "admissible_sweep": lambda: construction.admissible_sweep(
        construction.build_params(1e4, 1e4, 200.0), 0, 0
    ),
    "construct_check": lambda: construction.construct_check(10**4, 200.0, 0, 0),
    "convergence_report": lambda: voronoi.convergence_report(count=0),
    "run_verify-theta": lambda: verify.run_verify("theta", count=0),
    "run_verify-construct": lambda: verify.run_verify("construct", count=0),
    "smoothed_delta_average": lambda: smf.smoothed_delta_average(31.62, 0.01, 0),
    "weighted_delta_average": lambda: smf.weighted_delta_average(31.62, 0.0, 0.01, ConstantFn(1.0), 0),
    "smoothed_voronoi_check": lambda: smf.smoothed_voronoi_check(SPEC, 0),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_count_below_one_is_a_domain_error(call):
    with pytest.raises(DomainError) as exc:
        call()
    assert "\n" not in str(exc.value) and ">= 1" in str(exc.value)


SEEDED = {
    "run_verify": lambda seed: verify.run_verify("coeffs", seed=seed),
    "theta_sweep": lambda seed: theta_transform.theta_sweep(2, seed),
    "expsum_sweep": lambda seed: exp_sums.expsum_sweep(2, seed),
    "convergence_report": lambda seed: voronoi.convergence_report(count=2, seed=seed),
    "admissible_sweep": lambda seed: construction.admissible_sweep(
        construction.build_params(1e4, 1e4, 200.0), 10, seed
    ),
    "construct_check": lambda seed: construction.construct_check(10**4, 200.0, 10, seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True], ids=["negative", "float", "str", "bool"])
@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_bad_seed_is_a_domain_error(call, seed):
    with pytest.raises(DomainError) as exc:
        call(seed)
    assert "\n" not in str(exc.value) and "seed must be an integer >= 0" in str(exc.value)
