"""Self-tests of the benchmark: job generation, checker, tracer coverage.

    python3 -m pytest -q perfbench
"""
import json

import pytest

import run
import workloads as W
from checks import check_job, validate_references
from tracer import Tracer

cli = run.import_program()
REFS = json.loads(run.REF_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_determines_job_list(workload):
    count = 12
    first = W.first_jobs(workload, 3, count)
    assert first == W.first_jobs(workload, 3, count)
    assert first != W.first_jobs(workload, 4, count)
    assert [job.argvs for job in first] != [job.argvs for job in W.first_jobs(workload, 4, count)]


def test_every_rotation_entry_has_a_reference():
    validate_references(REFS)
    broken = json.loads(json.dumps(REFS))
    del broken["mc-validate"]["M4"]
    with pytest.raises(SystemExit, match="no MC reference"):
        validate_references(broken)
    broken = json.loads(json.dumps(REFS))
    del broken["sweep-pp"]["defaults"]["points"]["30"]
    with pytest.raises(SystemExit, match="no reference at P_p"):
        validate_references(broken)


@pytest.fixture(scope="module")
def mc_output():
    job = W.mc_job("M4", 0.1, 12345)
    _, outputs = run.run_job(cli, job.argvs)
    return job, outputs[0][1]


def _perturb(text: str, column: str, value) -> str:
    header, row = text.splitlines()
    fields = row.split(",")
    fields[header.split(",").index(column)] = str(value(fields[header.split(",").index(column)]))
    return f"{header}\n{','.join(fields)}\n"


def test_checker_accepts_real_output(mc_output):
    job, text = mc_output
    assert check_job(job, [(0, text)], REFS) == []


@pytest.mark.parametrize(
    "column, change, check",
    [
        ("ergodic_mc_bits_per_s_hz", lambda v: float(v) * 1.02, "mc_vs_reference"),
        ("n_samples", lambda v: int(v) - 1, "n_samples"),
        ("outage_mc_prob", lambda v: 1.5, "probability_range"),
        ("ergodic_mc_stderr_bits_per_s_hz", lambda v: float(v) * 2, "mc_stderr"),
    ],
)
def test_checker_rejects_perturbed_csv(mc_output, column, change, check):
    job, text = mc_output
    failures = check_job(job, [(0, _perturb(text, column, change))], REFS)
    assert check in [name for name, _ in failures]


def test_checker_counts_nonzero_rc(mc_output):
    job, text = mc_output
    assert check_job(job, [(1, text)], REFS)[0][0] == "rc"


TRACE_SAMPLES = {
    "mc-validate": [W.mc_job("M4", 0.419, 7)],
    "sweep-pp": [W.sweep_job("defaults", 7)],
    "cf-scan": W.first_jobs("cf-scan", 7, 2),
}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_layers_and_repeatable_counts(workload):
    jobs = TRACE_SAMPLES[workload]
    _, outputs, tracer = run._traced_loop(cli, jobs)
    summary = tracer.summary()
    layers = summary["layers"]
    for layer in run.EXPECTED_NONZERO[workload]:
        assert layers[layer]["calls"] > 0, layer
    for layer in run.EXPECTED_ZERO.get(workload, ()):
        assert layers[layer]["calls"] == 0, layer
    _, outputs_again, tracer_again = run._traced_loop(cli, jobs)
    assert run._count_signature(summary) == run._count_signature(tracer_again.summary())
    assert outputs == outputs_again == [run.run_job(cli, job.argvs)[1] for job in jobs]


def test_tracer_restores_originals():
    import ariswpc.closedform as closedform
    import ariswpc.optimize as optimize

    before = (closedform.ergodic_terms, optimize.ergodic_terms, cli.main)
    with Tracer():
        assert closedform.ergodic_terms is not before[0]
        assert optimize.ergodic_terms is closedform.ergodic_terms
    assert (closedform.ergodic_terms, optimize.ergodic_terms, cli.main) == before
