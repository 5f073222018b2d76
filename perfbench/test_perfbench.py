"""Self-tests of the benchmark: seeded inputs, failure accounting, the tail
statistic, tracing install/remove and the refusal to run without sources.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    make = workloads.WORKLOADS[name]
    assert make(11, tmp_path).inputs() == make(11, tmp_path).inputs()
    assert make(11, tmp_path).inputs() != make(12, tmp_path).inputs()


def _shift(vector, row):
    return tuple(a + b for a, b in zip(vector, row))


def test_decode_output_shifted_by_a_basis_row_fails(tmp_path):
    wl = workloads.DecodeR8(4, tmp_path)
    workloads.run_setups(wl, 1)
    calls = [(0, workloads.run_call(wl, 0))]
    assert workloads.check_all(wl, calls)[:3] == (4, 0, 0)
    status, vector = calls[0][1][1]
    calls[0][1][1] = (status, _shift(vector, wl.decoder.basis_.rows[0]))
    attempted, failed, wrong, reasons = workloads.check_all(wl, calls)
    assert (attempted, failed, wrong) == (4, 1, 1)
    assert reasons == {"vector differs from the closest vector": 1}


@pytest.mark.parametrize("name", ["reduce-r8", "bdd-reduce-r4"])
def test_reduction_output_off_the_lattice_fails(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    workloads.run_setups(wl, 1)
    calls = [(0, workloads.run_call(wl, 0))]
    base = wl.setup_outputs()
    assert workloads.check_all(wl, calls)[1] == 0
    calls[0][1][0] = _shift(calls[0][1][0], (Fraction(1, 2),) + (0,) * (wl.rank - 1))
    attempted, failed, wrong, reasons = workloads.check_all(wl, calls)
    assert (attempted, failed, wrong) == (1 + len(base), 1, 1)
    assert reasons == {"output is not a lattice member": 1}


class _Toy:
    """Minimal workload: op k returns k, op 3 raises and set-up 1 raises."""

    setups = 2

    def __init__(self):
        self.setup_errors = []

    def base(self, i):
        return i

    def setup(self, i, basis):
        if i == 1:
            raise MemoryError("set-up 1")

    def after_setup(self):
        pass

    def setup_outputs(self):
        return []

    def keys(self, k):
        return [k]

    def call(self, k):
        if k == 3:
            raise ArithmeticError("op 3")
        return [k]

    def prepare_checks(self):
        pass

    def check(self, key, out):
        return None if out == key else "wrong"


def test_raised_ops_and_set_ups_count_as_failed_not_wrong():
    attempted, failed, wrong, metrics, detail = run.measure(_Toy(), 0.05)
    assert attempted >= 5 and failed == 2 and wrong == 0
    assert detail["failures"] == {"raised ArithmeticError": 1, "raised MemoryError": 1}
    assert metrics["ok_frac"] == (attempted - 2) / attempted
    assert detail["op_tail"]["samples"] == attempted - 1 - run.WARMUP_CALLS
    assert set(detail["op_tail"]) == {"percentile", "samples", "beyond"}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1000)]) == (90.0, 899.0, 100)
    assert run.tail([float(x) for x in range(100)]) == (90.0, 89.0, 10)
    assert run.tail([float(x) for x in range(99)]) == (50.0, 49.0, 49)
    # the ops of one batched call tie; they never count as beyond
    assert run.tail([1.0] * 90 + [2.0] * 10) == (90.0, 1.0, 10)
    assert run.tail([1.0] * 91 + [2.0] * 9) == (50.0, 1.0, 9)


def test_tracer_wraps_every_lookup_site_and_restores_it():
    import latgauss.decoder
    import latgauss.enumeration
    import latgauss.lattice
    import latgauss.reductions

    before = latgauss.reductions.lattice_coefficients
    init = latgauss.lattice.LatticeBasis.__dict__["__init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert latgauss.decoder.lattice_coefficients is latgauss.reductions.lattice_coefficients
        assert latgauss.reductions.lattice_coefficients is not before
        assert latgauss.reductions.nearest_plane is latgauss.enumeration.nearest_plane
        basis = latgauss.lattice.LatticeBasis([[2, 0], [1, 3]])
        tracer.op = 0
        latgauss.reductions.closest_vector(basis, (Fraction(1, 3), 1))
    finally:
        tracer.remove()
    assert latgauss.reductions.lattice_coefficients is before
    assert latgauss.lattice.LatticeBasis.__dict__["__init__"] is init
    names = [s[0] for s in tracer.spans]
    assert "lattice.basis_init" in names and "enumeration.closest_vector" in names
    np_span = names.index("lattice.nearest_plane")
    assert names[tracer.spans[np_span][3]] == "enumeration.closest_vector"
    metrics = tracer.metrics(0.0)
    assert list(metrics) == list(tracing.PER_LAYER)
    assert metrics["enumeration.closest_vector_calls"]["value"] == 1


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.PER_LAYER.values())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-r8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_op_p50_takes_each_ops_median_before_the_median_over_ops():
    # op "a" slowed down once; its median repeat stands for it
    by_op = {"a": [1.0, 9.0, 1.0], "b": [2.0, 2.0], "c": [3.0]}
    assert run.op_p50(by_op) == 2.0
    attempted, failed, wrong, metrics, detail = run.measure(_Toy(), 0.05)
    assert detail["op_p50"]["distinct_ops"] == attempted - 1 - run.WARMUP_CALLS
    assert detail["op_p50"]["repeats"] == [1, 1]
