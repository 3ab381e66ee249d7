"""Experiment runner: tallies, CIs, conjecture search, checkpoints, CLI."""

import json
import math
import os
import statistics
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sepprob.criteria import classify_batch, classify_blocks
from sepprob.harness import (
    CHUNK_SAMPLES,
    ConjectureCandidate,
    ExperimentConfig,
    TrialTally,
    _chifit_chunk,
    _experiment_chunk,
    build_info,
    conjecture_search,
    estimate_chi_empirical,
    experiment_report,
    is_perfect_power,
    pool_size,
    run_experiment,
    stream_quotas,
    wald_ci,
)
from sepprob.linalg import epsilon_ratio_batch_2x2
from sepprob.sampling import (SAMPLER_VERSION, RandomStream, SamplerSpec, sample_batch,
                              sample_blocks)


def small_cfg(**overrides):
    spec = SamplerSpec(field="C", n=4, split=(2, 2), k=0, seed=1234)
    params = dict(sampler=spec, target_samples=150_000, streams=6, threads=1)
    params.update(overrides)
    return ExperimentConfig(**params)


# ---------------------------------------------------------------------------
# Wald / Clopper-Pearson intervals
# ---------------------------------------------------------------------------

def test_wald_ci_reproduces_published_intervals():
    lo, hi = wald_ci(2_900_000_000, 78_293_301)
    assert round(lo, 7) == 0.0269918
    assert round(hi, 7) == 0.0270036
    lo, hi = wald_ci(3_530_000_000, 462_704_503)
    assert round(lo, 6) == 0.131067
    assert round(hi, 6) == 0.131089


def test_wald_ci_degenerate_falls_back_to_exact():
    lo, hi = wald_ci(1000, 0)
    assert lo == 0.0
    assert hi == pytest.approx(1 - 0.025 ** (1 / 1000), rel=1e-9)
    lo, hi = wald_ci(1000, 1000)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1 / 1000), rel=1e-9)
    # rare-hit regime uses Clopper-Pearson even away from 0
    lo, hi = wald_ci(10_000, 5)
    assert 0 < lo < 5 / 10_000 < hi < 1


def test_wald_ci_validation():
    with pytest.raises(ValueError):
        wald_ci(0, 0)
    with pytest.raises(ValueError):
        wald_ci(10, 11)


def test_import_does_not_load_scipy_stats():
    # scipy.stats is most of the package's import time; only the QMC
    # oracle needs it, and it imports it on first call
    code = "import sys, sepprob; print('scipy.stats' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert res.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# tallies and experiments
# ---------------------------------------------------------------------------

def test_tally_merge_associative_commutative():
    a = TrialTally(10, 3, 1, 2, [3, 7], seed=5, stream_ids=[0])
    b = TrialTally(20, 8, 2, 5, [8, 12], seed=5, stream_ids=[1])
    c = TrialTally(5, 1, 0, 1, [1, 4], seed=5, stream_ids=[2])
    ab_c = a.merge(b).merge(c)
    a_bc = a.merge(b.merge(c))
    assert ab_c.counts_dict() == a_bc.counts_dict()
    ba = b.merge(a)
    assert ba.counts_dict() == a.merge(b).counts_dict()
    assert ab_c.samples == 35 and ab_c.ppt_hits == 12


def test_tally_merge_rejects_seed_mismatch():
    a = TrialTally(10, 3, 1, 2, [3, 7], seed=5)
    b = TrialTally(10, 3, 1, 2, [3, 7], seed=6)
    with pytest.raises(ValueError):
        a.merge(b)


def test_stream_quotas_round_robin():
    assert stream_quotas(10, 4) == [3, 3, 2, 2]
    assert stream_quotas(8, 4) == [2, 2, 2, 2]
    assert sum(stream_quotas(1_000_003, 17)) == 1_000_003


def test_experiment_estimate_and_report_schema():
    tally, report = run_experiment(small_cfg())
    assert tally.samples == 150_000
    p = 8 / 33
    sigma = math.sqrt(p * (1 - p) / tally.samples)
    assert abs(report["estimate"] - p) < 4 * sigma
    for key in ("system", "field", "k", "family", "samples", "ppt_hits",
                "estimate", "ci", "johnston", "det_gt", "neg_eig_histogram",
                "seed", "streams", "wall_time_s", "build_info"):
        assert key in report, key
    assert report["system"] == "2x2"
    assert sum(report["neg_eig_histogram"]) == tally.samples
    assert report["neg_eig_histogram"][0] == tally.ppt_hits
    assert tally.johnston_hits <= tally.ppt_hits
    for key in ("sepprob", "numpy", "scipy", "mpmath", "python", "cpu_count"):
        assert key in report["build_info"], key
        assert key not in tally.counts_dict()


def test_pool_size_clamps_to_threads_chunks_and_cores():
    assert pool_size(2, 8, 2) == 2
    assert pool_size(64, 8, 2) == 2
    assert pool_size(64, 3, 16) == 3
    assert pool_size(1, 8, 16) == 1
    assert pool_size(4, 0, 2) == 1  # nothing pending: serial, no pool
    assert pool_size(0, 8, 2) == 1


def test_experiment_bit_identical_across_thread_counts():
    results = [run_experiment(small_cfg(threads=t))[0].counts_dict()
               for t in (1, 2, 4)]
    assert results[0] == results[1] == results[2]


def test_experiment_merge_equals_single_run():
    # two half-budget runs on disjoint stream sets reproduce one full run
    cfg = small_cfg(target_samples=CHUNK_SAMPLES * 3, streams=3)
    full, _ = run_experiment(cfg)
    parts = []
    for sid in range(3):
        row = _experiment_chunk(cfg.sampler, sid, 0, CHUNK_SAMPLES)
        parts.append(TrialTally(
            samples=row["samples"], ppt_hits=row["ppt_hits"],
            johnston_hits=row["johnston_hits"],
            det_gt_hits_given_ppt=row["det_gt_hits_given_ppt"],
            neg_eig_histogram=row["neg_eig_histogram"], seed=1234,
            stream_ids=[row["stream_id"]]))
    merged = parts[0].merge(parts[1]).merge(parts[2])
    assert merged.counts_dict() == full.counts_dict()
    # from an empty tally, as a replay sums its chunks: the histogram widens
    merged = TrialTally(seed=1234)
    for part in parts:
        merged = merged.merge(part)
    assert merged.counts_dict() == full.counts_dict()


def _composed_verdicts(spec, stream_id, chunk_index, count):
    """The public composition the chunk kernel must equal row for row."""
    stream = RandomStream(spec.seed, stream_id, chunk_index)
    rhos = sample_batch(replace(spec, stream_id=stream_id), stream, count)
    return rhos, classify_batch(rhos, *spec.split)


KERNEL_SPECS = [
    *[(field, split, k, "full") for field in "RC" for split in ((2, 2), (2, 3), (2, 4), (3, 3))
      for k in (-2, 0, 1)],
    *[(field, split, 1, "x_state") for field in "RC" for split in ((2, 2), (2, 3), (3, 3))],
]


@pytest.mark.parametrize("field,split,k,family", KERNEL_SPECS)
def test_experiment_chunk_equals_sample_then_classify(field, split, k, family):
    spec = SamplerSpec(field=field, n=split[0] * split[1], split=split, k=k,
                       family=family, seed=606)
    count = 2500  # two full blocks and a partial one
    _rhos, out = _composed_verdicts(spec, 1, 2, count)
    if family == "full":  # X-state chunks draw no matrices
        kernel = classify_blocks(sample_blocks(spec, RandomStream(spec.seed, 1, 2), count),
                                 count, *split)
        for key, want in out.items():
            assert np.array_equal(kernel[key], want), key
    assert _experiment_chunk(spec, 1, 2, count) == {
        "stream_id": 1, "chunk_index": 2, "samples": count,
        "ppt_hits": int(np.count_nonzero(out["is_ppt"])),
        "johnston_hits": int(np.count_nonzero(out["johnston"])),
        "det_gt_hits_given_ppt": int(np.count_nonzero(out["det_gt"])),
        "neg_eig_histogram": np.bincount(out["neg_pt_eigs"],
                                         minlength=spec.n + 1).tolist()}


@pytest.mark.parametrize("field,k", [("R", 0), ("C", 1), ("C", -2)])
def test_chifit_chunk_equals_sample_then_classify(field, k):
    spec = SamplerSpec(field=field, n=4, split=(2, 2), k=k, seed=607)
    count, bins = 2500, 12
    rhos, out = _composed_verdicts(spec, 0, 1, count)
    eps = epsilon_ratio_batch_2x2(rhos)
    good = np.isfinite(eps)
    idx = np.minimum((eps[good] * bins).astype(int), bins - 1)
    assert _chifit_chunk(spec, 0, 1, count, bins) == {
        "stream_id": 0, "chunk_index": 1,
        "totals": np.bincount(idx, minlength=bins).tolist(),
        "hits": np.bincount(idx[out["is_ppt"][good]], minlength=bins).tolist(),
        "discarded": int(np.count_nonzero(~good))}


def test_chunk_memory_stays_within_a_block_budget():
    # one full C 3x3 chunk in a fresh process: its resident set may not grow
    # by the 85 MB a (65,536, 9, 9) complex stack takes (ru_maxrss, not
    # tracemalloc, which counts an np.empty buffer as touched in full)
    code = textwrap.dedent("""
        import resource
        from sepprob.harness import CHUNK_SAMPLES, _experiment_chunk
        from sepprob.sampling import SamplerSpec
        spec = SamplerSpec(field="C", n=9, split=(3, 3), k=0, seed=5)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        row = _experiment_chunk(spec, 0, 0, CHUNK_SAMPLES)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(row["samples"], (after - before) / 1024)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), "OPENBLAS_NUM_THREADS": "1"}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300, check=True)
    samples, rise_mb = res.stdout.split()
    assert int(samples) == CHUNK_SAMPLES
    assert float(rise_mb) < 40.0, rise_mb


def test_experiment_refuses_an_empty_budget_or_bad_streams():
    for overrides in ({"target_samples": 0}, {"streams": 0}, {"streams": 2**31 + 1}):
        with pytest.raises(ValueError):
            run_experiment(small_cfg(**overrides))


def test_threads_below_one_are_refused_before_the_checkpoint_opens(tmp_path):
    ckpt = tmp_path / "f.jsonl"
    with pytest.raises(ValueError, match="threads 0 must be at least 1"):
        run_experiment(small_cfg(threads=0, checkpoint=str(ckpt)))
    assert not ckpt.exists()
    with pytest.raises(ValueError, match="threads -3 must be at least 1"):
        estimate_chi_empirical("C", 1, 10, 1000, threads=-3)


def test_checkpoint_resume(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    cfg = small_cfg(checkpoint=str(path))
    tally1, _ = run_experiment(cfg)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert "fingerprint" in lines[0]
    assert sum(r["samples"] for r in lines[1:]) == 150_000
    # drop half the rows; the rerun only recomputes the missing chunks
    kept = lines[: len(lines) // 2]
    path.write_text("".join(json.dumps(r) + "\n" for r in kept))
    tally2, _ = run_experiment(cfg)
    assert tally1.counts_dict() == tally2.counts_dict()
    # untouched re-resume: nothing recomputed, same result
    tally3, _ = run_experiment(cfg)
    assert tally1.counts_dict() == tally3.counts_dict()


def test_checkpoint_of_blank_lines_gets_a_header(tmp_path):
    # the rows of a run over a blank-line file used to go in with no header,
    # and the next resume refused the file for it
    path = tmp_path / "ckpt.jsonl"
    path.write_text("\n  \n")
    fresh, _ = run_experiment(small_cfg(target_samples=1_000, streams=1))
    cfg = small_cfg(target_samples=1_000, streams=1, checkpoint=str(path))
    for _ in range(2):
        tally, _ = run_experiment(cfg)
        assert tally.counts_dict() == fresh.counts_dict()
    assert "fingerprint" in json.loads(path.read_text().splitlines()[0])


def test_checkpoint_rows_must_match_the_grid(tmp_path):
    # a 70,000-sample checkpoint resumed at 1,000 samples used to report
    # the first run's 65,536-sample chunk
    path = tmp_path / "ckpt.jsonl"
    run_experiment(small_cfg(target_samples=70_000, streams=1, checkpoint=str(path)))
    with pytest.raises(ValueError, match="chunk grid"):
        run_experiment(small_cfg(target_samples=1_000, streams=1, checkpoint=str(path)))
    with pytest.raises(ValueError, match="chunk grid"):
        run_experiment(small_cfg(target_samples=70_000, streams=2, checkpoint=str(path)))
    # a row off the grid under a matching header is refused too
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["samples"] -= 1
    path.write_text("\n".join([lines[0], json.dumps(row)] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="not on this run's chunk grid"):
        run_experiment(small_cfg(target_samples=70_000, streams=1, checkpoint=str(path)))


def test_checkpoint_histogram_must_sum_to_its_samples(tmp_path):
    # a row whose bins held one state more than its samples was resumed, and
    # the report counted that state
    path = tmp_path / "ckpt.jsonl"
    run_experiment(small_cfg(target_samples=70_000, streams=1, checkpoint=str(path)))
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["neg_eig_histogram"][-1] += 1
    path.write_text("\n".join([lines[0], json.dumps(row)] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match=f"counts {row['samples'] + 1} states, not its "
                                         f"{row['samples']} samples"):
        run_experiment(small_cfg(target_samples=70_000, streams=1, checkpoint=str(path)))


def test_checkpoint_from_another_config_is_refused(tmp_path):
    # an R 2x2 k=2 seed-999 run used to resume this C 2x2 k=0 seed-1
    # checkpoint and report its estimate, 0.245 against about 0.804
    path = tmp_path / "ckpt.jsonl"
    first = SamplerSpec(field="C", n=4, split=(2, 2), k=0, seed=1)
    second = SamplerSpec(field="R", n=4, split=(2, 2), k=2, seed=999)
    run_experiment(small_cfg(sampler=first, target_samples=70_000, streams=1,
                             checkpoint=str(path)))
    before = path.read_text()
    with pytest.raises(ValueError, match="field 'C' there, 'R' here"):
        run_experiment(small_cfg(sampler=second, target_samples=70_000, streams=1,
                                 checkpoint=str(path)))
    assert path.read_text() == before
    # a file without the header line is refused as well
    path.write_text("\n".join(before.splitlines()[1:]) + "\n")
    with pytest.raises(ValueError, match="no fingerprint header"):
        run_experiment(small_cfg(sampler=first, target_samples=70_000, streams=1,
                                 checkpoint=str(path)))


def test_checkpoint_from_an_older_sampler_is_refused(tmp_path):
    # sampler version 3 draws full-family states from the Bartlett factor,
    # so version-2 rows are not resumable
    assert build_info()["sampler_version"] == SAMPLER_VERSION == 3
    path = tmp_path / "ckpt.jsonl"
    spec = SamplerSpec(field="C", n=4, split=(2, 2), k=1, seed=1)
    cfg = small_cfg(sampler=spec, target_samples=1_000, streams=1, checkpoint=str(path))
    run_experiment(cfg)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["fingerprint"]["sampler_version"] = 2
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="sampler_version 2 there, 3 here"):
        run_experiment(cfg)


def test_checkpoint_torn_last_line(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    fresh, _ = run_experiment(small_cfg())
    run_experiment(small_cfg(checkpoint=str(path)))
    kept = path.read_text().splitlines()[:2]
    path.write_text("".join(line + "\n" for line in kept) + '{"stream_id": 0, "chunk_in')
    with pytest.warns(UserWarning, match="torn"):
        resumed, _ = run_experiment(small_cfg(checkpoint=str(path)))
    assert resumed.counts_dict() == fresh.counts_dict()
    rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert sum(r["samples"] for r in rows) == 150_000
    # an unparsable line before the last one is not a torn write
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + ["{not json"] + lines[1:]) + "\n")
    with pytest.raises(json.JSONDecodeError):
        run_experiment(small_cfg(checkpoint=str(path)))


@pytest.mark.parametrize("bad", [
    [1, 2],
    {"stream_id": 0, "chunk_index": 0, "samples": 10},  # no counts
    {"stream_id": 0, "chunk_index": 0, "samples": 10, "ppt_hits": 2, "johnston_hits": 1,
     "det_gt_hits_given_ppt": 1, "neg_eig_histogram": [2, 8]},  # 2 bins for 4 x 4 states
    {"stream_id": 0, "chunk_index": 0, "samples": 10, "ppt_hits": "2", "johnston_hits": 1,
     "det_gt_hits_given_ppt": 1, "neg_eig_histogram": [2, 8, 0, 0, 0]},
    {"stream_id": 0, "chunk_index": 0, "samples": 10, "ppt_hits": 12, "johnston_hits": 1,
     "det_gt_hits_given_ppt": 1, "neg_eig_histogram": [12, -2, 0, 0, 0]},  # a negative bin
    {"stream_id": 0, "chunk_index": 0, "samples": 10, "ppt_hits": 3, "johnston_hits": 1,
     "det_gt_hits_given_ppt": 1, "neg_eig_histogram": [2, 8, 0, 0, 0]},  # 3 PPT, 2 in bin 0
    {"stream_id": 0, "chunk_index": 0, "samples": 10, "ppt_hits": 2, "johnston_hits": 3,
     "det_gt_hits_given_ppt": 1, "neg_eig_histogram": [2, 8, 0, 0, 0]},  # Johnston beyond PPT
])
def test_cli_refuses_a_checkpoint_line_that_is_not_a_chunk_row(tmp_path, capsys, bad):
    from sepprob.cli import main
    ckpt = tmp_path / "c.jsonl"
    argv = ["estimate", "--system", "2x2", "--field", "C", "--samples", "10",
            "--streams", "1", "--checkpoint", str(ckpt)]
    main(argv)
    header, _row = ckpt.read_text().splitlines()
    ckpt.write_text(header + "\n" + json.dumps(bad) + "\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"sepprob: error: checkpoint {ckpt} line 2 is not a chunk row"


def test_det_gt_equipartition_smoke():
    _, report = run_experiment(small_cfg())
    det = report["det_gt"]
    sigma = math.sqrt(0.25 / report["ppt_hits"])
    assert abs(det["rate"] - 0.5) < 4 * sigma
    assert det["ci"] == list(wald_ci(report["ppt_hits"], det["hits"]))
    assert det["ci"][0] < det["rate"] < det["ci"][1]


def test_det_gt_without_ppt_samples_has_no_interval():
    # with no PPT sample the conditional rate is undefined; it once came
    # with an interval of [0, 0.975]
    tally = TrialTally(samples=1000, neg_eig_histogram=[0, 1000], seed=1)
    report = experiment_report(small_cfg(), tally)
    det = report["det_gt"]
    assert det["hits"] == 0
    assert math.isnan(det["rate"])
    assert len(det["ci"]) == 2 and all(math.isnan(x) for x in det["ci"])
    assert report["ci"] == list(wald_ci(1000, 0))


def test_induced_order_convention_matches_exact_formulas():
    # the det^k-weight reading of "order k" in both fields, pinned by the
    # exact induced-measure probabilities
    from sepprob.exactmath import p_2qubits, p_2rebits

    for field, k, ref in [("R", 1, float(p_2rebits(1))),
                          ("R", 2, float(p_2rebits(2))),
                          ("C", 1, float(p_2qubits(1)))]:
        spec = SamplerSpec(field=field, n=4, split=(2, 2), k=k, seed=6)
        cfg = ExperimentConfig(sampler=spec, target_samples=200_000,
                               streams=8, threads=1)
        tally, report = run_experiment(cfg)
        sigma = math.sqrt(ref * (1 - ref) / tally.samples)
        assert abs(report["estimate"] - ref) < 4 * sigma, (field, k)


# ---------------------------------------------------------------------------
# empirical chi estimation
# ---------------------------------------------------------------------------

def test_estimate_chi_empirical_shape_and_edges():
    table = estimate_chi_empirical("C", 1, 20, 150_000, seed=9, streams=6)
    rows = table["rows"]
    assert len(rows) == 20
    assert sum(r["n"] for r in rows) + table["discarded"] == 150_000
    # chi(1) = 1 and chi(0) = 0 show up in the edge bins
    top = rows[-1]
    assert top["rate"] > 0.9
    bottom = next(r for r in rows if r["n"] > 100)
    assert bottom["rate"] < 0.25
    for r in rows:
        if r["n"] > 5000:
            assert abs(r["residual"]) < 0.05


@pytest.mark.parametrize("k", [0, 1])
def test_estimate_chi_empirical_real_field_reference(k):
    # chi_{1,k} from chi_numeric at the bin midpoints; 20 bins keep the
    # midpoint's own bias well inside the band, which is a two-sided 4-sigma
    # check Bonferroni-corrected over the bins with >= 10 hits and misses
    table = estimate_chi_empirical("R", k, 20, 131_072, seed=4242, streams=2)
    z = []
    for r in table["rows"]:
        n, ref = r["n"], r["chi_ref"]
        assert math.isfinite(ref)
        if n * ref >= 10 and n * (1.0 - ref) >= 10:
            z.append(abs(r["residual"]) / math.sqrt(ref * (1.0 - ref) / n))
    normal = statistics.NormalDist()
    band = normal.inv_cdf(1.0 - normal.cdf(-4.0) / len(z))
    assert len(z) >= 15
    assert max(z) < band, (max(z), band)


def test_estimate_chi_empirical_negative_k_has_no_reference():
    table = estimate_chi_empirical("R", -1, 10, 2000, seed=1, streams=1)
    assert all(math.isnan(r["chi_ref"]) for r in table["rows"])


def test_estimate_chi_empirical_validation():
    with pytest.raises(ValueError):
        estimate_chi_empirical("C", 1, 5, 1000)
    with pytest.raises(ValueError):
        estimate_chi_empirical("C", 1, 10, 0)
    with pytest.raises(ValueError):
        estimate_chi_empirical("C", 1, 10, 1000, streams=0)


def test_estimate_chi_empirical_bit_identical_across_thread_counts():
    tables = [estimate_chi_empirical("R", 1, 20, 140_000, seed=11, streams=3,
                                     threads=t) for t in (1, 2)]
    for table in tables:
        del table["build_info"]
    assert json.dumps(tables[0]) == json.dumps(tables[1])


# ---------------------------------------------------------------------------
# conjecture search
# ---------------------------------------------------------------------------

def test_conjecture_search_examples():
    cands = conjecture_search("0.0269918", "0.0270036", [2, 3, 5], 10 ** 6, 40)
    assert (cands[0].numerator, cands[0].denominator) == (27, 1000)
    cands = conjecture_search("0.2424", "0.2425", [3, 11], 10 ** 3, 10)
    assert any(c.numerator == 8 and c.denominator == 33 for c in cands)
    cands = conjecture_search("0.00129235", "0.00129351", [2, 3, 5, 11], 10 ** 6, 40)
    assert any(c.numerator == 16 and c.denominator == 12375 for c in cands)


def test_conjecture_search_completeness():
    # every admissible catalog rational inside the window must appear
    lo, hi = "0.131067", "0.131089"
    cands = conjecture_search(lo, hi, [3], 10 ** 4, 10)
    assert any(c.numerator == 860 and c.denominator == 6561 for c in cands)


def test_conjecture_search_validation():
    with pytest.raises(ValueError):
        conjecture_search("0.5", "0.4", [2], 100, 5)
    with pytest.raises(ValueError):
        conjecture_search("0.1", "0.2", [4], 100, 5)
    with pytest.raises(ValueError):
        conjecture_search("0.0", "1.0", [2, 3, 5], 10 ** 6, 40)  # cap exceeded


def test_conjecture_search_refuses_a_strong_pseudoprime():
    # composite, yet a strong probable prime to every Miller-Rabin base used
    pseudoprime = 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="not prime"):
        conjecture_search("0.1", "0.2", [2, pseudoprime], 10 ** 6, 5)


def test_candidate_fields():
    c = ConjectureCandidate(27, 1000, (2, 5), 2)
    assert c.value == 0.027


def test_is_perfect_power():
    assert is_perfect_power(1)
    assert is_perfect_power(27)
    assert is_perfect_power(1000)
    assert is_perfect_power(2 ** 19)
    assert not is_perfect_power(12)
    assert not is_perfect_power(6561 * 2)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_exact_json(capsys):
    from sepprob.cli import main
    assert main(["exact", "--formula", "p2qubits", "--k", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exact"] == "8/33"
    assert out["factorization"] == {"num": "2^3", "den": "3*11"}


def test_cli_estimate_and_chi_fit(tmp_path, capsys):
    from sepprob.cli import main
    out_path = tmp_path / "report.json"
    main(["estimate", "--system", "2x2", "--field", "C", "--k", "0",
          "--samples", "20000", "--seed", "3", "--streams", "4",
          "--out", str(out_path)])
    report = json.loads(out_path.read_text())
    assert report["samples"] == 20000
    assert 0.2 < report["estimate"] < 0.3
    main(["chi-fit", "--field", "C", "--k", "1", "--bins", "10",
          "--samples", "20000", "--seed", "3"])
    csv_text = capsys.readouterr().out
    header = csv_text.splitlines()[0]
    assert header == "bin_lo,bin_hi,n,rate,ci_lo,ci_hi,chi_ref,residual"


def test_cli_quadrature_refuses_an_endless_eps_grid():
    from sepprob.cli import main
    # 0.5 + 1e-20 == 0.5 never moves; 0:1:1e-9 would hold 10^9 points
    for grid in ("0.1:1.0:0", "0.1:1.0:-0.1", "1.0:0.1:0.1", "0.5:1:1e-20", "0:1:1e-9",
                 "nan:1:0.1", "0:inf:0.1"):
        with pytest.raises(SystemExit):
            main(["quadrature", "--d", "2", "--eps-grid", grid])


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--system", "2x5", "--field", "R", "--family", "xstate",
      "--samples", "10"], "X-state family covers n in {4, 6, 9}"),
    (["estimate", "--system", "2x2", "--field", "C", "--samples", "0"],
     "need at least 1 sample"),
    (["estimate", "--system", "2x2", "--field", "C", "--samples", "10", "--seed", "-1"],
     "seed -1 must satisfy 0 <= seed < 2**64"),
    (["chi-fit", "--field", "C", "--bins", "5", "--samples", "100"],
     "need at least 10 bins"),
    (["exact", "--formula", "chi", "--d", "2", "--k", "1", "--epsilon", "1.5"],
     "eps must lie in [0, 1]"),
    (["exact", "--formula", "chi", "--d", "2", "--k", "1", "--epsilon", "-0.5"],
     "eps must lie in [0, 1]"),
    (["quadrature", "--d", "2", "--k", "1/2", "--epsilon", "0.5"],
     "numeric path requires integer k >= 0"),
    (["estimate", "--system", "2x2", "--field", "C", "--samples", "10", "--threads", "-3"],
     "threads -3 must be at least 1"),
    (["chi-fit", "--field", "C", "--samples", "100", "--threads", "0"],
     "threads 0 must be at least 1"),
    (["exact", "--formula", "master", "--d", "1", "--epsilon", "nan"],
     "eps must lie in [0, 1]"),
])
def test_cli_refusals_are_usage_errors(argv, message, capsys):
    from sepprob.cli import main
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"sepprob: error: {message}"
    assert "Traceback" not in err


def test_cli_refused_seed_leaves_no_checkpoint(tmp_path, capsys):
    from sepprob.cli import main
    ckpt = tmp_path / "f.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--system", "2x2", "--field", "C", "--samples", "10",
              "--seed", "-1", "--checkpoint", str(ckpt)])
    assert exc.value.code == 2
    assert not ckpt.exists()


def test_cli_quadrature_csv(capsys):
    from sepprob.cli import main
    main(["quadrature", "--d", "2", "--k", "1", "--epsilon", "0.5"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "epsilon,value,reference_value,abs_err"
    eps, val, ref, err = lines[1].split(",")
    assert float(val) == pytest.approx(0.47265625, abs=1e-9)
    assert float(err) < 1e-9
