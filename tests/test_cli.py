import functools
import itertools
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cmtwist
import cmtwist.cli as cli
from cmtwist.cli import (
    EXAMPLE_42_ASSUMED,
    InputError,
    JobSpec,
    declared_basis,
    main,
    parse_field_literal,
    run,
    validate_input,
)
from cmtwist.cmtypes import weil_datum
from cmtwist.fields import (
    MAX_CONDUCTOR,
    _galois_basis,
    compositum,
    cyclotomic,
    field_from,
    maximal_real_subfield,
    quadratic,
)
from cmtwist.residues import invariant_factor_basis, subgroup_generated, unit_group
from helpers import (
    EXAMPLE41_TUPLES,
    appended_balance_product,
    cm_fields,
    crt_residue_51,
    dumps_oracle,
    example41_field,
    example41_residues,
    orders,
    peeled_invariant_factor_basis,
    report_document,
    run_python,
    swap_loop_declared_basis,
)


def run_command(command, payload=None):
    return run(JobSpec(command, payload or {}))


def example_job(table, command):
    """The report of one of a worked example's own jobs."""
    return run_command(command, table.jobs[command])


def example41_twist_job(order):
    """twist-x payload for the example-41 datum with a character of this order."""
    return {
        "base": {"quadratic": -3},
        "components": [{
            "field": {"compositum": [{"quadratic": -3},
                                     {"real_subfield_of": 17}]},
            "type": [[0, 0], [0, 1], [0, 4], [0, 7],
                     [1, 2], [1, 3], [1, 5], [1, 6]],
        }],
        "character": {"order": order},
    }


class TestValidateInput:
    def test_minimal_job(self):
        job = validate_input({"command": "inertia", "payload": {"p": 3}})
        assert job.command == "inertia"
        assert job.payload == {"p": 3}

    def test_unknown_command(self):
        with pytest.raises(InputError, match="unknown command"):
            validate_input({"command": "fields", "payload": {}})

    def test_unknown_payload_key(self):
        with pytest.raises(InputError, match="unknown key"):
            validate_input({"command": "inertia", "payload": {"p": 3, "x": 1}})

    def test_missing_payload_key(self):
        with pytest.raises(InputError, match="missing key"):
            validate_input({"command": "base-cert", "payload": {"p": 3}})

    def test_unknown_top_level_key(self):
        with pytest.raises(InputError, match="unknown key"):
            validate_input({"command": "inertia", "payload": {"p": 3}, "when": 1})

    def test_output_is_not_a_job_key(self):
        # --output is a command-line flag; main() writes the file itself
        with pytest.raises(InputError, match=r"^job: unknown key\(s\) \['output'\]$"):
            validate_input({"command": "inertia", "payload": {"p": 3}, "output": "r.json"})

    def test_non_integer_rejected(self):
        job = validate_input({"command": "inertia", "payload": {"p": "3"}})
        with pytest.raises(InputError, match="expected an integer"):
            run(job)


class TestFieldLiterals:
    def test_each_form(self):
        assert parse_field_literal({"cyclotomic": 7}) == cyclotomic(7)
        assert parse_field_literal({"quadratic": -7}) == quadratic(-7)
        real = parse_field_literal({"real_subfield_of": 17})
        assert real.degree == 8
        comp = parse_field_literal(
            {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]}
        )
        assert comp == example41_field()

    def test_two_keys_rejected(self):
        with pytest.raises(InputError, match="exactly one key"):
            parse_field_literal({"cyclotomic": 7, "quadratic": -7})

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="unknown field literal"):
            parse_field_literal({"cubic": 2})

    def test_domain_errors_become_input_errors(self):
        with pytest.raises(InputError, match="squarefree"):
            parse_field_literal({"quadratic": 12})


class TestFieldLiteralCache:
    def test_same_bad_literal_names_each_path(self):
        bad = {"quadratic": 12}
        with pytest.raises(InputError, match=r"^base: .*squarefree"):
            parse_field_literal(bad, "base")
        with pytest.raises(InputError, match=r"^components\[0\]\.field\.compositum\[1\]: .*squarefree"):
            parse_field_literal({"compositum": [{"cyclotomic": 7}, bad]}, "components[0].field")
        with pytest.raises(InputError, match=r"^base\.compositum\[0\]\.cyclotomic: expected an integer"):
            parse_field_literal({"compositum": [{"cyclotomic": "7"}]}, "base")

    def test_failures_are_not_cached(self):
        before = cli._leaf_field.cache_info()
        for _ in range(3):
            with pytest.raises(InputError, match="MAX_CONDUCTOR"):
                parse_field_literal({"cyclotomic": MAX_CONDUCTOR + 1})
        after = cli._leaf_field.cache_info()
        assert after.misses == before.misses + 3 and after.currsize == before.currsize

    def test_repeated_job_is_a_cache_hit(self):
        payload = {"field": {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]}}
        first = run_command("field", payload)
        leaf, comp = cli._leaf_field.cache_info(), cli._compositum_field.cache_info()
        second = run_command("field", payload)
        assert cli._leaf_field.cache_info().hits == leaf.hits + 2
        assert cli._compositum_field.cache_info().hits == comp.hits + 1
        assert second.to_json() == first.to_json()
        fresh = compositum(quadratic(-3), maximal_real_subfield(cyclotomic(17)))
        assert parse_field_literal(payload["field"], "components[0].field") == fresh
        # keyed by the literal, not by the path it was found at
        assert cli._compositum_field.cache_info().hits == comp.hits + 2

    def test_repeated_coordinate_job_is_a_basis_cache_hit(self, monkeypatch):
        payload = {"field": {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]},
                   "type": [list(t) for t in EXAMPLE41_TUPLES]}
        peeled = []

        def counted(m, H):
            peeled.append((m, H))
            return invariant_factor_basis(m, H)

        # the declared basis, the stabilizer's first round and the field
        # report all read the field's basis, peeled once per field
        monkeypatch.setattr(cmtwist.fields, "invariant_factor_basis", counted)
        _galois_basis.cache_clear()
        first = run_command("cmtype", payload)
        before = _galois_basis.cache_info()
        second = run_command("cmtype", payload)
        K = example41_field()
        assert peeled == [(K.conductor, K.fixed_group)]
        assert _galois_basis.cache_info().hits == before.hits + 2
        assert second.to_json() == first.to_json()
        assert first.results["coordinate_basis"] == [{"generator": g, "order": d}
                                                     for g, d in declared_basis(K)]
        hits = _galois_basis.cache_info().hits
        field = run_command("field", {"field": payload["field"]})
        assert peeled == [(K.conductor, K.fixed_group)]
        assert _galois_basis.cache_info().hits == hits + 1
        assert field.results["invariant_factors"] == list(orders(_galois_basis(K))) == [2, 8]

    def test_caches_stay_private(self):
        # perfbench pins the set of public lru_caches; the literal caches are
        # cli's own, and the field's basis is cached under a private name
        cached = {name for name, obj in vars(cli).items()
                  if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == cli.__name__}
        assert cached == {"_leaf_field", "_compositum_field"}
        assert isinstance(_galois_basis, functools._lru_cache_wrapper)
        for constructor in (cyclotomic, quadratic, compositum, declared_basis):
            assert not isinstance(constructor, functools._lru_cache_wrapper)


def test_field_jobs_never_list_the_unit_group(monkeypatch):
    # a field job counts (Z/m)^x from the primes of m; only the coset table
    # and the Galois group walk the listed group, and no field job reads them
    literals = [
        {"cyclotomic": 999983}, {"cyclotomic": 720720}, {"cyclotomic": 51},
        {"real_subfield_of": 999983}, {"real_subfield_of": 51},
        {"quadratic": -7}, {"quadratic": 5}, {"quadratic": 12}, {"quadratic": -249999},
        {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]},
        {"compositum": [{"quadratic": -1}, {"cyclotomic": 249989}]},
    ]

    def outcome(literal):
        try:
            return run_command("field", {"field": literal}).to_json()
        except InputError as refused:
            return str(refused)

    expected = [outcome(f) for f in literals]

    def listed(m):
        raise AssertionError(f"unit_group({m}) was listed")

    for module in (cmtwist.residues, cmtwist.fields):
        monkeypatch.setattr(module, "unit_group", listed)
    # rebuild every field and kernel result, not read them from a cache
    for module in (cli, cmtwist.fields, cmtwist.residues):
        for obj in vars(module).values():
            if isinstance(obj, functools._lru_cache_wrapper):
                obj.cache_clear()
    assert [outcome(f) for f in literals] == expected


class TestDeclaredBasis:
    def test_conjugation_is_the_order_two_generator(self):
        K = example41_field()
        basis = declared_basis(K)
        assert [d for _, d in basis] == [2, 8]
        assert basis[0][0] == 50  # -1 mod 51

    def test_cyclic_galois_group_unchanged(self):
        basis = declared_basis(cyclotomic(7))
        assert [d for _, d in basis] == [6]

    def test_matches_the_peeling_oracle_on_cm_fields(self, monkeypatch):
        # the declared basis feeds the byte-stable coordinate_basis report
        corpus = cm_fields(40, 8)
        fast = [declared_basis(K) for K in corpus]
        monkeypatch.setattr("cmtwist.cli._galois_basis",
                            lambda K: peeled_invariant_factor_basis(K.conductor, K.fixed_group))
        assert fast == [declared_basis(K) for K in corpus]

    def test_matches_the_swap_loop_on_cm_fields(self):
        corpus = cm_fields(200, 64)
        swapped = [K for K in corpus if declared_basis(K) != _galois_basis(K)]
        assert len(corpus) > 1000 and len(swapped) > 500
        for K in corpus:
            assert declared_basis(K) == swap_loop_declared_basis(K), K

    @given(st.sampled_from([4620, 10920]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_swap_loop_where_the_two_rank_is_large(self, m, data):
        # (Z/4620)^x has 2-rank 5 and (Z/10920)^x 2-rank 6
        units = unit_group(m)
        H = subgroup_generated(m, data.draw(st.lists(st.sampled_from(units), max_size=2)))
        assume(m - 1 not in H and sum(d % 2 == 0 for d in orders(invariant_factor_basis(m, H))) >= 4)
        K = field_from(m, H)
        assert declared_basis(K) == swap_loop_declared_basis(K), K


class TestReports:
    def test_byte_identical_reports(self):
        a = run_command("example-42").to_json()
        b = run_command("example-42").to_json()
        assert a == b

    def test_round_trip_canonical_form(self):
        report = run_command("inertia", {"p": 3})
        doc = json.loads(report.to_json())
        assert doc == report_document(report)
        assert dumps_oracle(doc) == report.to_json()

    def test_field_command(self):
        report = run_command("field", {"field": {"quadratic": -7}})
        f = report.results["field"]
        assert (f["degree"], f["is_cm"], f["roots_of_unity"]) == (2, True, 2)

    def test_cmtype_command_with_residues(self):
        report = run_command(
            "cmtype", {"field": {"cyclotomic": 7}, "type": [1, 2, 3]}
        )
        r = report.results
        assert r["primitive"] is True
        assert r["reflex_type_inverse"] == [[1], [4], [5]]
        assert r["reflex_type_conjugate"] == [[4], [5], [6]]

    def test_cmtype_command_with_coordinates(self):
        payload = {
            "field": {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]},
            "type": [[0, 0], [0, 1], [0, 4], [0, 7],
                     [1, 2], [1, 3], [1, 5], [1, 6]],
        }
        report = run_command("cmtype", payload)
        r = report.results
        assert r["primitive"] is True
        assert r["reflex_field"]["degree"] == 16
        assert r["coordinate_basis"][0] == {"generator": 50, "order": 2}

    def test_cmtype_bad_half_system_is_input_error(self):
        with pytest.raises(InputError, match="half-system"):
            run_command("cmtype", {"field": {"cyclotomic": 7}, "type": [1, 2]})

    @pytest.mark.parametrize("field, labels, message", [
        ({"cyclotomic": 7}, [True, 2, 3], "type[0]: expected an integer"),
        ({"cyclotomic": 7}, [1.0, 2, 3], "type[0]: expected an integer"),
        ({"cyclotomic": 7}, ["1", 2, 3], "type[0]: expected an integer"),
        ({"cyclotomic": 7}, [1, 2, None], "type[2]: expected an integer"),
        ({"cyclotomic": 21}, [3, 2, 4, 5, 8, 10], "type: 3 is not a unit residue mod 21"),
        ({"cyclotomic": 7}, [7, 2, 3], "type: 7 is not a unit residue mod 7"),
        ({"cyclotomic": 7}, [[0], [], [2]],
         "type[1]: coordinate tuple length 0 does not match basis rank 1"),
        # a non-integer coordinate names its own path
        ({"cyclotomic": 7}, [[0], [True], [2]], "type[1][0]: expected an integer"),
        ({"cyclotomic": 7}, [[0], [1.5], [2]], "type[1][0]: expected an integer"),
        ({"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]},
         [[0, 0], [0, 1], [0, 4], [0, 7], [1, 2], [1, 3], [1, 5], [1, "6"]],
         "type[7][1]: expected an integer"),
    ], ids=["bool", "float", "string", "null", "non-unit-21", "non-unit-7",
            "empty-coordinates", "bool-coordinate", "float-coordinate", "string-coordinate"])
    def test_malformed_label_is_refused_with_its_path(self, field, labels, message):
        with pytest.raises(InputError) as refused:
            run_command("cmtype", {"field": field, "type": labels})
        assert str(refused.value) == message

    def test_malformed_twist_label_names_its_component(self):
        payload = {"base": {"quadratic": -7}, "character": {"order": 2},
                   "components": [{"field": {"cyclotomic": 7}, "type": [1, False, 3]}]}
        with pytest.raises(InputError) as refused:
            run_command("twist-x", payload)
        assert str(refused.value) == "components[0].type[1]: expected an integer"

    def test_discond_command(self):
        report = run_command("discond", {"n": 6, "d": 2})
        assert report.results["discond"]["gal_phiB_over_F"] == "Z/3"

    @pytest.mark.parametrize("command, payload, message", [
        ("cmtype", {"field": {"real_subfield_of": 13}, "type": [1, 2, 3]},
         "field: not a CM field"),
        ("cmtype", {"field": {"cyclotomic": 1}, "type": [0]}, "field: not a CM field"),
        ("twist-x", {"base": {"cyclotomic": 1}, "character": {"order": 2},
                     "components": [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]}]},
         "base: not a CM field"),
        ("twist-e", {"base": {"real_subfield_of": 5}, "dim_x": 2, "dim_y": 1,
                     "components": [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]}]},
         "base: not a CM field"),
        ("twist-x", {"base": {"quadratic": -7}, "character": {"order": 2},
                     "components": [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]},
                                    {"field": {"quadratic": 5}, "type": [1]}]},
         "components[1].field: not a CM field"),
        ("twist-x", {"base": {"quadratic": -3}, "character": {"order": 2},
                     "components": [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]}]},
         "components: base is not a subfield of component 0"),
    ], ids=["cmtype-real", "cmtype-rationals", "twist-x-rationals", "twist-e-real-base",
            "real-component", "base-not-in-component"])
    def test_field_fault_names_its_key(self, command, payload, message):
        # the path of the literal at fault, and no repr of the field
        with pytest.raises(InputError) as refused:
            run_command(command, payload)
        assert str(refused.value) == message


class TestExample41:
    def test_report_embeds_the_full_chain(self):
        report = run_command("example-41")
        r = report.results
        assert report.concluded
        assert r["invariant_factors"] == [2, 8]
        assert r["primitive"] and r["reflex_degree"] == example41_field().degree
        cmtype = example_job(cli.EXAMPLE_41, "cmtype").results
        assert cmtype["reflex_field"] == cmtype["field"]            # the reflex field is K
        assert [e["n"] for e in r["n_sigma"]] == [4, 4]
        assert r["weil_r"] == 8
        twist = example_job(cli.EXAMPLE_41, "twist-x").results["twist"]
        assert twist["t"] == 1 and twist["mu_bound"] == 1
        assert twist["conclusions"]["phiB_equals_M"] is True
        assert twist["conclusions"]["phiB_over_F_exact"] == r["phiB_over_F"] == 3
        assert r["conclusions"] == ["F_Phi(B) = M, [F_Phi(B):F] = 3"]

    def test_coordinates_echoed_with_declared_basis(self):
        # the type is given by the residues of the paper's (a, b) tuples
        # along 35 (order 2) and 37 (order 8)
        psi = cli.EXAMPLE_41.jobs["cmtype"]["type"]
        assert psi == sorted(example41_residues()) and len(psi) == 8
        assert (crt_residue_51(2, 1), crt_residue_51(1, 3)) == (35, 37)
        assert sorted(pow(35, a, 51) * pow(37, b, 51) % 51 for a, b in EXAMPLE41_TUPLES) == psi
        fixed = example41_field().fixed_group
        assert [n for n in range(1, 9) if pow(35, n, 51) in fixed] == [2, 4, 6, 8]
        assert [n for n in range(1, 9) if pow(37, n, 51) in fixed] == [8]

    def test_states_every_assumption_of_its_twist_job(self):
        # the example concludes over its twist-x job, so it names each
        # assumption that job takes on trust
        names = [h.name for h in run_command("example-41").hypotheses]
        twist = example_job(cli.EXAMPLE_41, "twist-x")
        assumed = [h.name for h in twist.hypotheses if h.kind == "assumed"]
        assert len(assumed) == 4 and all(name in names for name in assumed)

    def test_induced_type_fails_the_reflex_claims(self, monkeypatch, capsys):
        # the type induced from Q(sqrt -3): every residue is 1 (mod 3)
        induced = {**cli.EXAMPLE_41.jobs["cmtype"], "type": [1, 4, 7, 19, 22, 25, 28, 31]}
        monkeypatch.setitem(cli.EXAMPLE_41.jobs, "cmtype", induced)
        assert main(["example-41", "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert [h["name"] for h in doc["hypotheses"] if not h["holds"]] == [
            "Phi is primitive", "the reflex field of Phi is K"]
        assert doc["results"]["reflex_degree"] == 2 and doc["results"]["conclusions"] == []


class TestExample42:
    def test_conclusions_and_assumptions(self):
        report = run_command("example-42")
        assert report.concluded
        assert report.results["conclusions"] == [
            "K_Phi(A) = K",
            "Q_Phi(A^(d)) = L_d",
        ]
        assumed = [h for h in report.hypotheses if h.kind == "assumed"]
        assert [h.name for h in assumed] == list(EXAMPLE_42_ASSUMED)
        assert all(h.holds for h in report.hypotheses)
        assert set(EXAMPLE_42_ASSUMED) == {
            "class number 1",
            "good reduction outside 7",
            "Hom(J,E^(d)) = 0",
            "endomorphism-field identities",
        }

    def test_intermediate_values(self):
        r = run_command("example-42").results
        cmtype = example_job(cli.EXAMPLE_42, "cmtype").results
        assert cmtype["reflex_type_inverse"] == [[1], [4], [5]]
        assert cmtype["reflex_type_conjugate"] == [[4], [5], [6]]
        assert cmtype["reflex_field"] == cmtype["field"] and r["reflex_degree_J"] == 6
        assert [e["n"] for e in r["n_sigma_J"]] == [2, 1]
        assert [e["n"] for e in r["n_sigma_product"]] == [2, 2]
        weil = {"name": "(A, k, iota) is of Weil type", "kind": "checked"}
        alone = example_job(cli.EXAMPLE_42, "twist-x")
        product = example_job(cli.EXAMPLE_42, "twist-e")
        assert {**weil, "holds": False} in [h._asdict() for h in alone.hypotheses]
        assert {**weil, "holds": True} in [h._asdict() for h in product.hypotheses]
        assert not alone.concluded and product.concluded and r["product_concluded"] is True
        assert product.results["weil_r"] == 4
        cert = r["base_certificate"]
        assert cert["certificate_p"]["inertia_order"] == 56
        assert cert["certificate_q"]["inertia_order"] == 78624
        assert cert["conclusion"] == "K_Phi(A) = K = Q_Phi(A)"
        assert "conclusions" not in product.results["twist"]      # it would repeat "concluded"

    def test_balancing_component_is_the_oracle_choice(self):
        jobs = cli.EXAMPLE_42.jobs
        J, elliptic = jobs["twist-e"]["components"]
        assert J == jobs["cmtype"] and jobs["twist-x"]["components"] == [J]
        k = parse_field_literal(jobs["twist-e"]["base"])
        T, _ = cli.parse_cm_type(parse_field_literal(J["field"]), J["type"])
        choice = appended_balance_product(weil_datum(k, [T]))
        assert parse_field_literal(elliptic["field"]) == k
        assert cli.parse_cm_type(k, elliptic["type"]) == (choice, None)

    def test_custom_primes(self):
        report = run_command("example-42", {"p": 17, "q": 31})
        assert report.concluded
        assert report.results["base_certificate"]["certificate_q"]["p"] == 31

    def test_failing_prime_leaves_conclusions_empty(self):
        report = run_command("example-42", {"p": 3, "q": 2})
        assert not report.concluded
        assert report.results["conclusions"] == []

    def test_broken_claim_is_named(self, monkeypatch, capsys):
        product = cli.EXAMPLE_42.jobs["twist-e"]
        J = product["components"][0]
        monkeypatch.setitem(product, "components",
                            [J, {"field": {"quadratic": -7}, "type": [1]}])
        claim = "appending the conjugate elliptic type balances them to (2, 2)"
        assert main(["example-42"]) == 2
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("failed: ")]
        assert len(failed) == 1 and claim in failed[0][len("failed: "):].split("; ")
        assert main(["example-42", "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert {"name": claim, "kind": "checked", "holds": False} in doc["hypotheses"]
        assert doc["concluded"] is False and doc["statements"] == []
        assert doc["results"]["conclusions"] == []
        assert [e["n"] for e in doc["results"]["n_sigma_product"]] == [3, 1]


@pytest.mark.parametrize("command, table", [
    ("example-41", cli.EXAMPLE_41),
    ("example-42", cli.EXAMPLE_42),
])
def test_example_records_are_its_claims_then_its_assumptions(command, table):
    report = run_command(command)
    assert [h._asdict() for h in report.hypotheses] == [
        {"name": statement, "kind": "checked", "holds": True}
        for statement, *_ in table.claims
    ] + [{"name": name, "kind": "assumed", "holds": True} for name in table.assumed]
    # results hold the values read from the jobs and the conclusions
    assert set(report.results) == {"conclusions", *table.reads}
    assert report.statements == table.conclusions


# The CLI's exit contract: 0 concludes, 2 names the hypothesis that fails,
# 1 refuses a malformed job.  A row is (argv, payload, exit code, text).  A
# payload is written to a file passed as --input, whose path replaces
# {input} in the text; a string is written as it is.  The text is the exact
# stderr line of an exit 1, and a substring of stdout for exits 0 and 2.
EXIT_CONTRACT = [
    pytest.param(["example-41"], None, 0, "concluded", id="example-41"),
    pytest.param(["example-42"], None, 0, "Q_Phi(A^(d)) = L_d", id="example-42"),
    pytest.param(["discond", "--n", "6", "--d", "2", "--json"], None, 0,
                 '"gal_phiB_over_F": "Z/3"', id="discond-json"),
    # a certificate checks p = 3 (mod 7) alone; its witnesses rest on that record
    pytest.param(["inertia", "--p", "3"], None, 0, "(3^6 - 1)/13 = 56", id="inertia-3"),
    # a prime = 3 (mod 7) below 2^64, and the least Chernick number that is
    # a strong pseudoprime to base 2: Baillie-PSW decides both
    pytest.param(["inertia", "--p", "1000000000121"], None, 0,
                 "1000000000121 = 3 (mod 7)", id="inertia-below-2-64"),
    pytest.param(["inertia", "--p", "27278026129"], None, 1,
                 "input error: p: 27278026129 is not prime", id="inertia-chernick"),
    pytest.param(["inertia"], None, 1, "input error: payload: missing key(s) ['p']",
                 id="inertia-without-p"),
    # two primes = 3 (mod 7) above 3.3e24, decided by the Baillie-PSW path
    pytest.param(["base-cert", "--p", str(10**30 + 709), "--q", str(10**30 + 751), "--json"],
                 None, 0, '"conclusion": "K_Phi(A) = K = Q_Phi(A)"', id="base-cert-above-psi13"),
    pytest.param(["base-cert", "--p", "3", "--q", "2"], None, 2, "NOT CONCLUDED",
                 id="base-cert-q-2"),
    # w(Q(sqrt -3)) = 6, so no character of order 4 takes values in k^x
    pytest.param(["twist-x"], example41_twist_job(4), 2, "failed: c takes values in k^x",
                 id="twist-x-order-4"),
    pytest.param(["twist-x", "--json"], example41_twist_job(4), 2, '"holds": false',
                 id="twist-x-order-4-json"),
    pytest.param(["twist-x"], example41_twist_job(1), 1,
                 "input error: payload: character order must be at least 2, got 1",
                 id="twist-x-order-1"),
    # the rationals: their trivial fixed group is written as []
    pytest.param(["field", "--json"], {"field": {"real_subfield_of": 4}}, 0,
                 '"fixed_group": []', id="field-rationals"),
    # an odd conductor with the even unit generator 2, and an even conductor
    pytest.param(["field"], {"field": {"quadratic": 5}}, 0,
                 "conductor 5, degree 2, totally real", id="field-sqrt-5"),
    pytest.param(["field"], {"field": {"quadratic": -1}}, 0,
                 "conductor 4, degree 2, CM", id="field-sqrt-minus-1"),
    pytest.param(["field"], {"field": {"compositum": [{"quadratic": -3}, {"real_subfield_of": 17}]}},
                 0, "Gal = Z/2 x Z/8", id="field-example-41"),
    pytest.param(["field"], "{nope", 1, "input error: {input}: invalid JSON "
                 "(Expecting property name enclosed in double quotes: line 1 column 2 (char 1))",
                 id="field-malformed-json"),
    pytest.param(["field", "--input", "/nonexistent/job.json"], None, 1,
                 "input error: [Errno 2] No such file or directory: '/nonexistent/job.json'",
                 id="field-missing-input"),
    # labels are checked against the field's coset table; each path names the label
    pytest.param(["cmtype"], {"field": {"cyclotomic": 7}, "type": [True, 2, 3]}, 1,
                 "input error: type[0]: expected an integer", id="cmtype-bool-label"),
    pytest.param(["cmtype"], {"field": {"cyclotomic": 21}, "type": [3, 2, 4, 5, 8, 10]}, 1,
                 "input error: type: 3 is not a unit residue mod 21", id="cmtype-non-unit"),
    pytest.param(["cmtype"], {"field": {"cyclotomic": 7}, "type": [[0], [1.5], [2]]}, 1,
                 "input error: type[1][0]: expected an integer", id="cmtype-float-coordinate"),
    # a literal that names no CM field is refused under its own key
    pytest.param(["cmtype"], {"field": {"real_subfield_of": 13}, "type": [1, 2, 3]}, 1,
                 "input error: field: not a CM field", id="cmtype-real-field"),
    pytest.param(["twist-x"], {"base": {"cyclotomic": 1}, "character": {"order": 2},
                               "components": [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]}]},
                 1, "input error: base: not a CM field", id="twist-x-rational-base"),
    pytest.param(["cmtype"], {"field": {"cyclotomic": 7}, "type": [1, 2, 4]}, 0,
                 "valid CM-type, induced", id="cmtype-induced"),
    # a compositum's type whose reflex field is reduced from conductor 15 to 3
    pytest.param(["cmtype"], {"field": {"compositum": [{"quadratic": -3}, {"cyclotomic": 5}]},
                              "type": [1, 4, 7, 13]},
                 0, "reflex field has conductor 3", id="cmtype-reflex-conductor-3"),
]


class TestMainExitCodes:
    @pytest.mark.parametrize("argv, payload, code, text", EXIT_CONTRACT)
    def test_exit_contract(self, argv, payload, code, text, tmp_path, capsys):
        if payload is not None:
            path = tmp_path / "job.json"
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
            argv = [*argv, "--input", str(path)]
            text = text.replace("{input}", str(path))
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err and "AbelianField(" not in err
        if code == 1:
            assert (out, err) == ("", text + "\n")
        else:
            assert text in out and err == ""

    @pytest.mark.parametrize("argv", [
        ["example-41", "--p", "3"],
        [],
        ["inertia", "--p", "x"],
        ["fields"],
    ], ids=["unknown-flag", "no-command", "non-integer-flag", "unknown-command"])
    def test_usage_error_exits_1(self, argv, capsys):
        # argparse's own code 2 would read as a hypothesis that does not hold
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: cmtwist") and "error: " in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["example-42", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out and err == ""

    def test_input_with_payload_flags_is_refused(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"p": 5}')
        assert main(["inertia", "--p", "3", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: --p would be ignored: the payload comes from --input {path}\n"
        assert main(["base-cert", "--q", "3", "--p", "5", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("input error: --p, --q would be ignored: ")
        assert main(["inertia", "--input", str(path)]) == 2        # the file alone runs p = 5

    @pytest.mark.parametrize("argv, message", [
        (["base-cert", "--p", "3", "--q", "7"], "payload: q: must differ from 7"),
        (["example-42", "--q", "7"], "payload: q: must differ from 7"),
        (["base-cert", "--p", "3", "--q", "15"], "payload: q: 15 is not prime"),
        (["base-cert", "--p", "15", "--q", "7"], "payload: p: 15 is not prime"),
        (["base-cert", "--p", "3", "--q", "3"], "payload: the two primes must be distinct"),
        (["inertia", "--p", "15"], "p: 15 is not prime"),
        (["inertia", "--p", "7"], "p: must differ from 7"),
        (["discond", "--n", "-6", "--d", "-3"], "payload: n = -6 must be positive"),
        (["discond", "--n", "6", "--d", "0"], "payload: d = 0 must be positive"),
        (["discond", "--n", "6", "--d", "4"], "payload: d = 4 must divide n = 6"),
    ], ids=["base-cert-q-7", "example-42-q-7", "base-cert-q-15", "base-cert-p-15",
            "base-cert-p-equals-q", "inertia-15", "inertia-7", "discond-negative",
            "discond-d-0", "discond-d-4"])
    def test_exit_1_message_names_the_offending_key(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"input error: {message}\n"

    def test_hypothesis_failure_in_twist(self, tmp_path, capsys):
        # a failed checked hypothesis gives a report, as a false flag does
        path = tmp_path / "job.json"
        path.write_text(json.dumps(example41_twist_job(2)))
        assert main(["twist-x", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines()[-2:] == ["failed: n does not divide r", "NOT CONCLUDED"]
        assert err == ""
        assert main(["twist-x", "--input", str(path), "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert {"name": "n does not divide r", "kind": "checked",
                "holds": False} in doc["hypotheses"]
        assert doc["statements"] == [] and doc["concluded"] is False
        assert (doc["payload"]["character"]["order"], doc["results"]["weil_r"]) == (2, 8)
        assert set(doc["results"]["twist"]["conclusions"].values()) == {None, False}

    def test_json_flag_and_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["inertia", "--p", "3", "--json", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["results"]["certificate"]["inertia_order"] == 56
        assert out.read_text() == printed

    @pytest.mark.parametrize("argv, code", [
        (["example-41"], 0),
        (["base-cert", "--p", "3", "--q", "2"], 2),
        (["inertia", "--p", "2"], 2),
        (["field", "--input", "job.json"], 0),
    ], ids=["example-41", "base-cert-fails", "inertia-fails", "field"])
    def test_summary_path_emits_no_report(self, argv, code, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "job.json").write_text('{"field": {"quadratic": -7}}')
        command, payload = argv[0], cli._payload_from_args(cli._build_parser().parse_args(argv))
        expected = "\n".join(cli._summary_lines(run(JobSpec(command, payload)))) + "\n"

        def refuse(report):
            raise AssertionError("the summary path serialized the report")

        monkeypatch.setattr(cli.Report, "to_json", refuse)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == expected and captured.err == ""

    def test_output_file_without_json_flag(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["base-cert", "--p", "3", "--q", "2", "--output", str(out)]) == 2
        report = run_command("base-cert", {"p": 3, "q": 2})
        assert out.read_text() == report.to_json()
        assert capsys.readouterr().out == "\n".join(cli._summary_lines(report)) + "\n"
        # --output writes the bytes that --json prints
        assert main(["example-41", "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["example-41", "--json"]) == 0
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("target, reason", [
        ("missing/x.json", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-directory", "a-directory"])
    def test_unwritable_output_exits_1_with_a_message(self, target, reason, tmp_path, capsys):
        path = tmp_path / target
        assert main(["inertia", "--p", "3", "--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ") and reason in captured.err, captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("content, reason", [
        # json.load refuses this depth up to Python 3.11; from 3.12 it may
        # load, and then the literal depth budget refuses it
        (b'{"field": ' + b'{"compositum": [' * 600 + b'{"cyclotomic": 7}' + b']}' * 600 + b'}',
         r"({file}: nested too deeply \(maximum recursion depth"
         r"|field: nested too deeply \(more than 200 field literals\)$)"),
        (b'{"p": ' + b"7" * 5000 + b'}', r"{file}: invalid JSON \(.*4300 digits"),
        (b'{"p": 3\xff}', r"{file}: invalid JSON \(.*can't decode byte 0xff"),
    ], ids=["nested-600", "digits-5000", "byte-0xff"])
    def test_undecodable_input_file_exits_1_with_a_message(self, content, reason, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_bytes(content)
        assert main(["field", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert re.match("input error: " + reason.format(file=re.escape(str(path))), err), err[:300]
        assert "Traceback" not in err

    @staticmethod
    def _nested_job(depths: dict[str, int]) -> dict:
        """A twist-x job whose ``base`` and ``components[0].field`` literals
        nest as deep as ``depths`` says (1 is a bare leaf), the rest 1."""
        def nest(leaf, depth):
            for _ in range(depth - 1):
                leaf = {"compositum": [leaf]}
            return leaf

        return {"command": "twist-x", "payload": {
            "base": nest({"quadratic": -7}, depths.get("base", 1)),
            "components": [{"field": nest({"cyclotomic": 7}, depths.get("components[0].field", 1)),
                            "type": [1, 2, 3]}],
            "character": {"order": 2}}}

    @pytest.mark.parametrize("extra_frames", [0, 300])
    def test_job_at_the_literal_depth_budget_runs_and_serializes(self, extra_frames):
        depth = cli.MAX_LITERAL_DEPTH
        assert depth == 200     # the budget README documents
        doc = self._nested_job({"base": depth, "components[0].field": depth})

        def at_depth(frames):
            if frames:
                return at_depth(frames - 1)
            return run(validate_input(doc)).to_json()

        text = at_depth(extra_frames)
        shallow = run(validate_input(self._nested_job({})))
        assert json.loads(text)["results"] == json.loads(shallow.to_json())["results"]

    @pytest.mark.parametrize("command, root", [
        ("field", "field"),
        ("twist-x", "base"),
        ("twist-x", "components[0].field"),
    ])
    def test_literal_one_level_past_the_budget_exits_1(self, command, root, tmp_path, capsys):
        if command == "field":
            base = self._nested_job({"base": cli.MAX_LITERAL_DEPTH + 1})["payload"]["base"]
            doc = {"command": "field", "payload": {"field": base}}
        else:
            doc = self._nested_job({root: cli.MAX_LITERAL_DEPTH + 1})
        message = f"{root}: nested too deeply (more than {cli.MAX_LITERAL_DEPTH} field literals)"
        with pytest.raises(InputError) as refused:
            run(validate_input(doc))
        assert str(refused.value) == message
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc["payload"]))
        assert main([command, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"input error: {message}\n" and captured.out == ""

    def test_twist_e_dimension_mismatch_is_input_error(self, tmp_path, capsys):
        # the datum has dimension 3 + 1 = 4, but dim(X) + dim(Y) = 6
        doc = {
            "base": {"quadratic": -7},
            "components": [
                {"field": {"cyclotomic": 7}, "type": [1, 2, 3]},
                {"field": {"quadratic": -7}, "type": [3]},
            ],
            "dim_x": 5,
            "dim_y": 1,
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        assert main(["twist-e", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "datum dimension 4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dim_x, dim_y", [(3, 0), (3, -1), (0, 1)])
    def test_twist_e_non_positive_dimension_is_input_error(self, dim_x, dim_y, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({**EXAMPLE_42_TWIST_E, "dim_x": dim_x, "dim_y": dim_y}))
        assert main(["twist-e", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"input error: payload: dimensions must be positive, "
                       f"got dim(X) = {dim_x}, dim(Y) = {dim_y}\n"), err

    def test_twist_e_positive_degree_mismatch_is_a_hypothesis_failure(self, tmp_path, capsys):
        # the Jacobian and its conjugate, dim 6 = 3 + 3, but [k:Q] = 2 != 6
        jacobians = [{"field": {"cyclotomic": 7}, "type": t} for t in ([1, 2, 3], [4, 5, 6])]
        path = tmp_path / "job.json"
        path.write_text(json.dumps({**EXAMPLE_42_TWIST_E, "components": jacobians,
                                    "dim_x": 3, "dim_y": 3}))
        assert main(["twist-e", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines()[-2:] == ["failed: [k:Q] = 2 dim(Y)", "NOT CONCLUDED"]
        assert err == ""
        assert main(["twist-e", "--input", str(path), "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert [h for h in doc["hypotheses"] if not h["holds"]] == [
            {"name": "[k:Q] = 2 dim(Y)", "kind": "checked", "holds": False}]
        assert doc["statements"] == []
        assert (doc["results"]["base"]["degree"], doc["payload"]["dim_x"],
                doc["payload"]["dim_y"]) == (2, 3, 3)

    def test_twist_x_reads_assume_before_the_character_checks(self, tmp_path, capsys):
        # order 4 is impossible over Q(sqrt -3), w = 6; a malformed assume
        # is reported first, as in twist-e
        path = tmp_path / "job.json"
        path.write_text(json.dumps({**example41_twist_job(4), "assume": {"aut_valued": 1}}))
        assert main(["twist-x", "--input", str(path)]) == 1
        assert capsys.readouterr().err == "input error: assume.aut_valued: expected a boolean\n"
        path.write_text(json.dumps({**example41_twist_job(4), "assume": {"aut_valued": True}}))
        assert main(["twist-x", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        # r = 8: the order 4 also divides r
        assert "failed: c takes values in k^x; n does not divide r" in out.splitlines()
        assert err == ""

    def test_field_job_at_conductor_100003(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"field": {"cyclotomic": 100003}}))
        assert main(["field", "--input", str(path), "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["invariant_factors"] == [100002]
        assert results["field"]["roots_of_unity"] == 200006

    @pytest.mark.parametrize("field", [{"quadratic": -2305843009213693951},
                                       {"cyclotomic": 10**12}])
    def test_field_over_the_conductor_budget_exits_1_at_once(self, field, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"field": field}))
        t0 = time.perf_counter()
        assert main(["field", "--input", str(path)]) == 1
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "MAX_CONDUCTOR" in err
        assert "Traceback" not in err


# assumed flag -> the hypothesis it stands for
TWIST_X_FLAGS = {
    "base_central": "k embeds in the center of End0(A)",
    "end_field_equal": "F = F(End(A))",
    "phi_base_equal": "F_Phi(A) = F",
    "aut_valued": "iota(c) takes values in Aut(A)",
}
TWIST_E_FLAGS = {
    "hom_xy_zero": "Hom(X, Y) = 0",
    "end_fields_equal": "F = F(End(X)) = F(End(Y))",
    "phi_base_equal": "F_Phi(A) = F",
}
EXAMPLE_42_TWIST_E = {
    "base": {"quadratic": -7},
    "components": [{"field": {"cyclotomic": 7}, "type": [1, 2, 3]},
                   {"field": {"quadratic": -7}, "type": [3]}],
    "dim_x": 3, "dim_y": 1, "label": "L_d",
}
BASE_CERT_STATEMENTS = (
    "K_Phi(A) lies in K(A_n) for every n >= 3",
    "K(A_p) intersect K(A_q) is unramified over K away from 7",
    "no intermediate field survives the inertia bound at either prime",
)


@pytest.mark.parametrize("command, payload, section, keys", [
    ("twist-x", example41_twist_job(3), "twist", {"t", "w_k", "mu_bound", "conclusions"}),
    ("twist-e", EXAMPLE_42_TWIST_E, "twist", {"t"}),
    ("base-cert", {"p": 3, "q": 17}, "certificate",
     {"certificate_p", "certificate_q", "conclusion"}),
    ("discond", {"n": 6, "d": 2}, "discond", {"gal_phiB_over_F", "gal_M_over_phiB"}),
], ids=["twist-x", "twist-e", "base-cert", "discond"])
def test_results_hold_each_value_once(command, payload, section, keys):
    # a theorem's section holds what it computed; the payload is echoed
    # once, under "payload".  Two keys still repeat another value: w_k is
    # base.roots_of_unity, and phiB_equals_M is exact_m_over_phiB == 1
    report = run_command(command, payload)
    assert set(report.results[section]) == keys
    if command == "twist-x":
        assert set(report.results) == {"base", "multiplicities", "weil_r", "twist"}
        assert set(report.results["twist"]["conclusions"]) == {
            "exact_m_over_phiB", "phiB_over_F_exact", "phiB_equals_M"}


class TestHypothesisRecords:
    @pytest.mark.parametrize("command, payload, flags, rows", [
        ("twist-x", example41_twist_job(3), TWIST_X_FLAGS, 4),
        ("twist-e", EXAMPLE_42_TWIST_E, TWIST_E_FLAGS, 3),
    ], ids=["twist-x-example-41", "twist-e-example-42"])
    def test_every_flag_assignment_through_main(self, command, payload, flags, rows,
                                                tmp_path, capsys):
        path = tmp_path / "job.json"
        full = None
        # all flags true comes first and gives every statement
        for values in itertools.product((True, False), repeat=len(flags)):
            assume = dict(zip(flags, values))
            failed = {flags[f] for f, v in assume.items() if not v}
            path.write_text(json.dumps({**payload, "assume": assume}))
            code = main([command, "--input", str(path), "--json"])
            out, err = capsys.readouterr()
            doc = json.loads(out)
            assert code == (2 if failed else 0) and doc["concluded"] is not failed
            for name in failed:
                assert {"name": name, "kind": "assumed", "holds": False} in doc["hypotheses"]
            assert {h["name"] for h in doc["hypotheses"] if not h["holds"]} == failed
            if full is None:
                full = doc["statements"]
                assert len(full) == rows
            # the two leading rows rest on every flag but phi_base_equal,
            # the others on every flag
            if not failed:
                expected = full
            elif failed == {"F_Phi(A) = F"}:
                expected = full[:2]
            else:
                expected = []
            assert doc["statements"] == expected, assume
            assert main([command, "--input", str(path)]) == code
            out, summary_err = capsys.readouterr()
            assert [line[2:] for line in out.splitlines() if line.startswith("  ")] == expected
            assert "Traceback" not in err + summary_err

    @pytest.mark.parametrize("command", ["base-cert", "example-42"])
    def test_failed_check_withholds_the_base_statements(self, command, capsys):
        # example-42 names its claim on the base-cert job, not that job's records
        failed = {
            "base-cert": ["K' = K at q = 2"],
            "example-42": ["the base certificate gives K_Phi(A) = K = Q_Phi(A)"],
        }[command]
        argv = [command, "--p", "3", "--q", "2"]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "failed: " + "; ".join(failed) in out.splitlines()
        assert main(argv + ["--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        for statement in BASE_CERT_STATEMENTS:
            assert statement not in out and statement not in doc["statements"]
        assert [h["name"] for h in doc["hypotheses"] if not h["holds"]] == failed
        assert {"name": failed[0], "kind": "checked", "holds": False} in doc["hypotheses"]

    def test_summary_names_failed_hypotheses(self, tmp_path, capsys):
        payload = {**example41_twist_job(3), "assume": {
            "end_field_equal": False, "aut_valued": False, "phi_base_equal": False}}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        assert main(["twist-x", "--input", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "command: twist-x",
            "assumed: k embeds in the center of End0(A)",
            "failed: F = F(End(A)); F_Phi(A) = F; iota(c) takes values in Aut(A)",
            "NOT CONCLUDED",
        ]

    @pytest.mark.parametrize("p, failed", [
        (2, "p = 3 (mod 7)"),
        (5, "p = 3 (mod 7)"),
    ])
    def test_summary_names_failed_inertia_checks(self, p, failed, capsys):
        assert main(["inertia", "--p", str(p)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == ["assumed: class number 1", "failed: " + failed, "NOT CONCLUDED"]
        assert main(["inertia", "--p", str(p), "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        records = doc["hypotheses"]
        assert "; ".join(h["name"] for h in records if not h["holds"]) == failed
        assert all(h["kind"] == "checked" for h in records if not h["holds"])
        # every witness at p rests on the failed congruence
        assert doc["statements"] == []


def _loaded_by_cli_import(*names: str) -> list[str]:
    """Which of ``names`` a fresh interpreter holds after ``import cmtwist.cli``."""
    code = f"import sys, cmtwist.cli; print(*sorted(set({names!r}) & set(sys.modules)))"
    out = run_python(["-c", code], timeout=60)
    out.check_returncode()
    return out.stdout.split()


def test_cli_import_does_not_load_sympy():
    # nor argparse and the gettext it imports: only main builds a parser,
    # so library callers of run never load them
    assert _loaded_by_cli_import("sympy", "argparse", "gettext") == []


def test_cli_import_does_not_load_the_dataclasses_chain():
    # a cold command is almost all start-up, and dataclasses alone pulls in
    # inspect, ast, dis and tokenize
    assert _loaded_by_cli_import("dataclasses", "inspect", "ast", "dis", "tokenize") == []


def test_pyproject_version_is_the_package_version(capsys):
    # every format bump edits both places; a regex, since tomllib needs 3.11
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [cmtwist.__version__]
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"{cmtwist.__version__}\n"


@pytest.mark.parametrize("command, payload", [
    ("twist-x", example41_twist_job(3)),
    ("twist-e", EXAMPLE_42_TWIST_E),
], ids=["twist-x-example-41", "twist-e-example-42"])
def test_twist_jobs_check_each_component_once(command, payload, monkeypatch):
    # weil_datum checks that each component contains the base, the datum
    # counts its fibers once, and the theorem and the report read the counts
    contained, real = [], cmtwist.cmtypes.is_subfield
    counted, real_counts = [], cmtwist.cmtypes.restriction_multiplicities

    def checking(k, K):
        contained.append(K)
        return real(k, K)

    def counting(k, components):
        counted.append((k, components))
        return real_counts(k, components)

    monkeypatch.setattr(cmtwist.cmtypes, "is_subfield", checking)
    monkeypatch.setattr(cmtwist.cmtypes, "restriction_multiplicities", counting)
    report = run_command(command, payload)
    assert report.concluded
    assert contained == [parse_field_literal(c["field"]) for c in payload["components"]]
    assert counted and len(set(counted)) == len(counted)
