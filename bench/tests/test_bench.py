"""Tests of the benchmark's own machinery.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import eigpert  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class TestTail:
    def test_ten_samples_beyond(self):
        samples = list(range(40, 0, -1))
        pct, value = stats.tail(samples)
        assert value == 30
        assert sum(s > value for s in samples) == 10
        assert pct == 75.0

    def test_smallest_sample_count(self):
        pct, value = stats.tail([5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        assert value == 1.0
        assert pct == pytest.approx(100.0 / 11.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            stats.tail([1.0] * 10)


def span(parent, start, end, name="f"):
    return [0, name, name, parent, start, end, None]


class TestSelfTime:
    def test_nested(self):
        tree = [
            span(-1, 0, 100),  # 0
            span(0, 10, 40),  # 1, child of 0
            span(1, 20, 30),  # 2, grandchild
            span(0, 50, 60),  # 3, child of 0
        ]
        assert spans.self_times(tree) == [60, 20, 10, 10]

    def test_overlapping_and_overhanging_children_count_once(self):
        tree = [span(-1, 0, 10), span(0, 2, 6), span(0, 4, 8), span(0, 9, 15)]
        assert spans.self_times(tree)[0] == 10 - 6 - 1

    def test_caller_attribution(self):
        tree = [
            span(-1, 0, 100, "alignment.conjugate_to_eigenbasis"),
            span(0, 10, 90, "jacobi.eigh"),
            span(-1, 100, 150, "jacobi.eigh"),
        ]
        _, _, eigh_calls, eigh_self_ns, _ = spans.layer_totals(tree)
        assert eigh_calls == {"alignment.conjugate_to_eigenbasis": 1, spans.ROOT_CALLER: 1}
        assert eigh_self_ns["alignment.conjugate_to_eigenbasis"] == 80


@pytest.fixture(scope="module")
def instance():
    inst = workloads.build_instance(1, workloads.N6_SPEC)
    workloads.verify_instance(inst)
    return inst


class TestTracer:
    def test_wraps_every_binding_and_restores(self):
        originals = {
            (module, attr): getattr(module, attr)
            for module, attr in (
                (eigpert, "eigh"),
                (eigpert.jacobi, "eigh"),
                (eigpert.harness, "operator_norm"),
                (eigpert.schur, "operator_norm"),
                (eigpert.cli, "first_order_eigenvalues"),
            )
        }
        with spans.Tracer():
            for (module, attr), fn in originals.items():
                assert getattr(module, attr) is not fn
                assert getattr(module, attr).__wrapped__ is fn
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is fn

    def test_traced_outputs_are_bit_identical(self, instance):
        e = workloads.direction(1, 0, instance.a.shape[0])
        plain = workloads.predict(instance.base, e)
        tracer = spans.Tracer()
        with tracer:
            tracer.active = True
            traced = workloads.predict(instance.base, e)
            tracer.active = False
        assert workloads.digest(*plain.arrays()) == workloads.digest(*traced.arrays())
        names = [s[1] for s in tracer.spans]
        conj = names.index("alignment.conjugate_to_eigenbasis")
        assert any(s[1] == "jacobi.eigh" and s[3] == conj for s in tracer.spans)
        labels = {s[2] for s in tracer.spans}
        assert {"schur.refined_eigenvalues.full", "schur.refined_eigenvalues.simplified"} <= labels


class TestChecks:
    def test_prediction_passes(self, instance):
        op = workloads.prediction_op(instance, 1, 0)
        op.check(op.run())

    @pytest.mark.parametrize("field", ["first_order", "schur_full"])
    def test_perturbed_prediction_fails(self, instance, field):
        op = workloads.prediction_op(instance, 1, 0)
        p = op.run()
        wrong = getattr(p, field) + np.r_[1e-2, np.zeros(instance.a.shape[0] - 1)]
        with pytest.raises(workloads.CheckFailed):
            op.check(p._replace(**{field: wrong}))

    def test_perturbed_eigenvalues_fail(self, instance):
        op = workloads.rediag_op(instance, 1, 0)
        d = op.run()
        op.check(d)
        with pytest.raises(workloads.CheckFailed):
            op.check(replace(d, lam=d.lam + 1e-9))

    def test_perturbed_cli_output_fails(self, tmp_path):
        cli = workloads.Cli(BENCH.parent)
        state = cli.setup(1, tmp_path)
        cli.verify_setup(state)
        for op in cli.trace_cycle(state, 0):
            code, out = op.run()
            op.check((code, out))
            with pytest.raises(workloads.CheckFailed):
                op.check((code, out.split("\n", 1)[1]))
            with pytest.raises(workloads.CheckFailed):
                op.check((1, out))
