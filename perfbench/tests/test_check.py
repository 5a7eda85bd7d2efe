import json

import cmtwist.cli as cli
import workloads
from check import check_job


def _run(doc):
    try:
        report = cli.run(cli.validate_input(doc))
    except cli.InputError as exc:
        return "1", f"input error: {exc}"
    except cli.HypothesisError as exc:
        return "2", f"hypothesis failure: {exc}"
    return ("0" if report.concluded else "2"), report.to_json()


def _edited(text, edit):
    doc = json.loads(text)
    edit(doc["results"])
    return json.dumps(doc)


def test_real_reports_pass():
    for name in workloads.WORKLOADS:
        for job in workloads.generate(name, 5)[:40]:
            if job["expect"].get("conductor", 0) > 1500:
                continue
            outcome, text = _run(job["doc"])
            assert check_job(job["expect"], job["doc"], outcome, text) == [], job


def test_flipped_invariant_factor_is_rejected():
    job = workloads.generate("field-ladder", 1)[0]
    outcome, text = _run(job["doc"])
    assert check_job(job["expect"], job["doc"], outcome, text) == []

    def flip(res):
        res["invariant_factors"][-1] += 1
    assert check_job(job["expect"], job["doc"], outcome, _edited(text, flip))


def test_wrong_outcome_class_is_rejected():
    job = workloads.generate("field-ladder", 1)[0]
    _, text = _run(job["doc"])
    assert check_job(job["expect"], job["doc"], "2", text)
    assert check_job(job["expect"], job["doc"], "timeout", "")


def test_wrong_inertia_order_and_conclusion_are_rejected():
    job = next(j for j in workloads.generate("certificates", 1)
               if j["doc"]["command"] == "inertia" and j["expect"]["exit"] == 0)
    outcome, text = _run(job["doc"])

    def bump(res):
        res["certificate"]["inertia_order"] += 1

    def drop(res):
        res["certificate"]["conclusion"] = None
    assert check_job(job["expect"], job["doc"], outcome, _edited(text, bump))
    assert check_job(job["expect"], job["doc"], outcome, _edited(text, drop))


def test_cm_type_with_conjugate_pair_is_rejected():
    job = next(j for j in workloads.generate("cm-twist", 1)
               if j["doc"]["command"] == "cmtype" and j["expect"]["exit"] == 0)
    outcome, text = _run(job["doc"])
    m = job["expect"]["conductor"]

    def conj(res):
        res["type"][-1] = sorted(m - x for x in res["type"][0])
    assert check_job(job["expect"], job["doc"], outcome, _edited(text, conj))
