"""Tests of the benchmark's own metric code.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import (OpLog, Tracer, beyond, percentile, philox_words,  # noqa: E402
                     write_spans)


def test_p90_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert beyond(100, 90) == 10
    assert percentile(values, 90) == 90
    assert sum(v > percentile(values, 90) for v in values) == 10
    assert percentile(values, 50) == 50
    with pytest.raises(ValueError, match="p90"):
        percentile(values[:99], 90)


def test_percentile_rule_scales_with_the_tail():
    assert beyond(1000, 99) == 10
    assert percentile(range(1000), 99) == 989
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    assert percentile([7.0], 50) == 7.0  # a median needs no tail


def test_philox_words_counts_every_64_bit_output():
    bg = np.random.Philox(key=np.array([3, 5], dtype=np.uint64))
    assert philox_words(bg) == 0
    drawn = 0
    for n in (1, 3, 4, 5, 1000, 7):
        bg.random_raw(n)
        drawn += n
        assert philox_words(bg) == drawn


def test_philox_words_matches_normal_draws():
    # the ziggurat takes one word per normal, plus rare rejections
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    before = philox_words(gen.bit_generator)
    gen.standard_normal(100_000)
    words = philox_words(gen.bit_generator) - before
    assert 100_000 <= words < 103_000


def test_failed_frac_counts_a_failing_check_and_a_raise():
    log = OpLog()
    assert log.run("good", lambda: 2.0, lambda v: abs(v - 2.0), 1e-12) == 2.0
    log.run("off", lambda: 2.5, lambda v: abs(v - 2.0), 1e-12)
    log.run("raises", lambda: 1 / 0, lambda v: 0.0, 1.0)
    log.run("nan", lambda: math.nan, lambda v: abs(v - 2.0), 1e-12)
    assert log.attempted == 4
    assert log.failed == 3
    assert log.failed_frac == pytest.approx(0.75)
    assert "ZeroDivisionError" in log.records[2].note


def test_spans_stay_in_memory_until_written(tmp_path):
    tracer = Tracer("job-7")
    with tracer.span("job"):
        for _ in range(3):
            with tracer.span("chunk") as sp:
                with tracer.span("sampling"):
                    pass
                sp.counts = {"samples": 4}
    path = tmp_path / "spans.jsonl"
    assert not path.exists()
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0, 3, 0, 5]
    assert all(s.start <= s.end for s in tracer.spans)
    write_spans(path, tracer.spans)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 7
    assert {r["job"] for r in rows} == {"job-7"}
    assert rows[1]["counts"] == {"samples": 4}
    assert set(rows[0]) == {"job", "id", "parent", "name", "start", "end", "counts"}


def test_span_closes_when_its_body_raises():
    tracer = Tracer("j")
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            raise RuntimeError
    assert tracer.spans[0].end >= tracer.spans[0].start
    with tracer.span("next"):
        pass
    assert tracer.spans[1].parent is None



def test_chifit_bound_is_one_4_sigma_check_over_the_bins():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from workloads import SIGMAS, _chifit_err

    def table(z_first, bins):
        n, ref = 10_000, 0.5
        sigma = math.sqrt(ref * (1 - ref) / n)
        return {"rows": [{"n": n, "chi_ref": ref,
                          "residual": (z_first if i == 0 else 0.0) * sigma}
                         for i in range(bins)]}

    # one bin: the plain 4-sigma check
    assert _chifit_err(table(4.0, 1)) == pytest.approx(SIGMAS)
    # 38 bins: 4.07 sigma in one bin passes, 4.8 sigma fails
    assert _chifit_err(table(4.07, 38)) < SIGMAS < _chifit_err(table(4.8, 38))
    # a table with no checkable bin fails
    assert _chifit_err({"rows": [{"n": 5, "chi_ref": 0.5, "residual": 0.0}]}) == math.inf
