"""Self-tests of the benchmark: tracing leaves no trace, inputs and counts repeat, failures count.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import worker  # noqa: E402
from layertrace import CSR_TARGET, TARGETS, Tracer, traced  # noqa: E402
from workloads import WORKLOADS, PathCall  # noqa: E402

from rankpath import ScalarField, VarietyDescriptor, sample_stratum  # noqa: E402

SEED = 20261017


def bound_objects():
    names = [(module, attr) for module, attr, _ in TARGETS] + [CSR_TARGET]
    return {(module.__name__, attr): getattr(module, attr) for module, attr in names}


def test_traced_restores_every_wrapped_attribute(tmp_path):
    before = bound_objects()
    workload = WORKLOADS["trials-small"](SEED, tmp_path)
    with pytest.raises(KeyboardInterrupt):
        with traced(Tracer()):
            during = bound_objects()
            assert all(during[key] is not before[key] for key in before)
            worker.run_pass(workload.warmups, worker.Tally())
            raise KeyboardInterrupt
    after = bound_objects()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_plain_outputs_are_identical(name, tmp_path):
    calls = WORKLOADS[name](SEED, tmp_path).make_round(0)
    tally = worker.Tally()
    _, plain = worker.run_pass(calls, tally)
    tracer = Tracer()
    with traced(tracer):
        _, seen = worker.run_pass(calls, tally)
    assert seen == plain
    assert tally.failed == 0, tally.problems
    assert tracer.calls(layertrace.SVD) > 0


def test_counts_repeat_exactly(tmp_path):
    exact = (
        "numkernel.svd_calls",
        "numkernel.svd_elements",
        "paths.normalize_pair.calls",
        "oracles.edge_admit_ratio",
    )
    runs = []
    for _ in range(2):
        workload = WORKLOADS["oracle"](SEED, tmp_path)
        workload.finale = []
        workload.trace_rounds = 2
        trace = worker.trace(workload, workload.make_round(0), 0.0, worker.Tally())
        runs.append(trace["per_layer"])
    for key in exact:
        assert runs[0][key] > 0
        assert runs[0][key] == runs[1][key]


def test_off_variety_input_is_a_counted_failure():
    d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
    rng = np.random.default_rng(SEED)
    full_rank = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = sample_stratum(d, 2, 1.0, 1)
    q = sample_stratum(d, 2, 1.5, 2)
    tally = worker.Tally()
    worker.run_pass([PathCall(d, full_rank, q), PathCall(d, p, q)], tally)
    assert (tally.ops, tally.failed) == (2, 1)
    assert "MembershipError" in tally.problems[0]


def test_tail_is_the_fixed_percentile():
    latencies = [float(i) for i in range(101)]
    value, beyond = worker.tail(latencies)
    assert value == pytest.approx(75.0)
    assert beyond == 25
    assert worker.tail([5.0]) == (5.0, 0)


@pytest.mark.parametrize("name", ["pairs-large", "oracle"])
def test_rounds_repeat_and_warmups_ignore_the_seed(name, tmp_path):
    def pairs(calls):
        return [(call.p, call.q) for call in calls]

    make = WORKLOADS[name]
    one, again, other = make(SEED, tmp_path), make(SEED, tmp_path), make(SEED + 1, tmp_path)
    for (p, q), (p2, q2) in zip(pairs(one.make_round(3)), pairs(again.make_round(3))):
        assert np.array_equal(p, p2) and np.array_equal(q, q2)
    assert not np.array_equal(one.make_round(0)[0].p, other.make_round(0)[0].p)
    assert not np.array_equal(one.make_round(0)[0].p, one.make_round(1)[0].p)
    for (p, q), (p2, q2) in zip(pairs(one.warmups), pairs(other.warmups)):
        assert np.array_equal(p, p2) and np.array_equal(q, q2)
