"""Failure accounting and report checks of the runner, end to end."""

import run

FIXTURE = run.HERE / "fixtures" / "op_engel_crash.ek"
CONTROL = run.ROOT / "corpus" / "bw_nonclosed.ek"


def test_a_crashing_check_is_counted_and_the_run_goes_on():
    work = run.Corpus([FIXTURE, CONTROL], 0, 64)
    results = work.run_pass()
    assert results[0]["error"].startswith("NameError")
    assert results[1]["exit_code"] == 0
    tally = run.Tally()
    run.score(work, [results, results], tally)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert all("NameError" in note for note in tally.notes)


def result(report, matched=True, exit_code=0, ref_s=run.NOMINAL_S):
    return {"n_tasks": 1, "error": None, "exit_code": exit_code,
            "report": report, "ref_s": run.NOMINAL_S,
            "tasks": [{"name": "a", "seconds": 0.1, "ref_s": ref_s,
                       "matched": matched}]}


REPORT = ("engelkit-report 1\ntasks 1\ntask a :: engel\ntoken engel_pass\n"
          "expect engel_pass :: ok\nend a\nmismatches 0\nexit 0\n")


class OneManifest:
    checks = staticmethod(lambda results: run.manifest_checks("m",
                                                              results[0]))


def test_a_report_that_changes_between_passes_fails_the_check():
    assert run.task_sections(REPORT) == {
        "a": "task a :: engel\ntoken engel_pass\nexpect engel_pass :: ok\n"
             "end a"}
    changed = REPORT.replace("engel_pass\n", "engel_pass \n", 1)
    tally = run.Tally()
    run.score(OneManifest, [[result(REPORT)], [result(REPORT)],
                            [result(changed)]], tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "differs" in tally.notes[0]


def test_mismatch_and_exit_code_fail_the_check():
    assert run.manifest_checks("m", result(REPORT, matched=False))[0]["why"]
    assert run.manifest_checks("m", result(REPORT, exit_code=1))[0]["why"]
    assert run.manifest_checks("m", result(REPORT))[0]["why"] is None


def test_traced_and_untraced_reports_are_identical():
    work = run.Corpus([CONTROL], 3, 64)
    plain = work.run_pass()
    traced = work.run_pass(trace=True)
    assert work.reports(plain) == work.reports(traced)
    assert traced[0]["layers"]["bundles.boothby_wang.calls"] == 1


def test_sweep_rows_match_the_weight_rule():
    results = [run.spawn("sweep", 4, 20, 0)]
    tally = run.Tally()
    run.score(run.Sweep(4), [results], tally)
    assert (tally.attempted, tally.failed) == (20, 0)


def test_times_are_scaled_to_the_nominal_pace():
    slow = result(REPORT, ref_s=2 * run.NOMINAL_S)
    assert run.manifest_checks("m", slow)[0]["seconds"] == 0.05
    assert run.scaled(0.3, run.NOMINAL_S / 2) == 0.6
