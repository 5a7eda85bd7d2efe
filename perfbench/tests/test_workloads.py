import json

import pytest

import workloads
from arith import is_probable_prime, phi


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_stream(name):
    a = workloads.generate(name, 7)
    assert json.dumps(a) == json.dumps(workloads.generate(name, 7))
    assert json.dumps(a) != json.dumps(workloads.generate(name, 8))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_streams_are_large_enough_for_p90(name):
    jobs = workloads.generate(name, 1)
    assert len(jobs) >= 100
    assert {j["expect"]["exit"] for j in jobs} <= {0, 1, 2}


def test_field_ladder_stays_inside_the_conductor_cap():
    for job in workloads.generate("field-ladder", 3):
        m = job["expect"]["conductor"]
        assert 51 <= m <= workloads.MAX_CONDUCTOR
        assert job["expect"]["degree"] <= phi(m)


def test_cm_twist_and_certificates_mix_outcome_classes():
    for name in ("cm-twist", "certificates"):
        exits = [j["expect"]["exit"] for j in workloads.generate(name, 2)]
        assert exits.count(0) > exits.count(1) > 0 and exits.count(2) > 0


def test_expected_primes_are_prime():
    for job in workloads.generate("certificates", 4):
        if job["doc"]["command"] == "inertia":
            assert is_probable_prime(job["expect"]["p"]) is (job["expect"]["exit"] != 1)
