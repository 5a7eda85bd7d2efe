import sys

import pytest

import cmtwist.cli  # noqa: F401  (loads every layer module)
import spans


def test_self_time_on_a_synthetic_tree():
    # job(0..20) holds f(1..11) and g(12..19); f holds f(2..6) (recursion)
    # and h(7..10); g holds h(13..14).
    names = ["job", "f", "g", "h"]
    tree = [
        (1, 3, 2, 6, False),
        (3, 3, 7, 10, True),
        (1, 2, 1, 11, True),
        (3, 3, 13, 14, True),
        (2, 2, 12, 19, True),
        (0, 1, 0, 20, True),
    ]
    got = {name: rest for name, *rest in spans.fold_spans(tree, names)}
    assert got["job"] == [1, 20 - 10 - 7, 20]
    assert got["f"] == [2, (10 - 4 - 3) + 4, 10]      # outermost time only
    assert got["g"] == [1, 7 - 1, 7]
    assert got["h"] == [2, 3 + 1, 4]
    total_self = sum(row[1] for row in got.values())
    assert total_self == 20                            # self times tile the root


def test_recorder_folds_nested_calls():
    rec = spans.Recorder()
    inner = rec.wrap("x.inner", lambda: sum(range(1000)))
    outer = rec.wrap("x.outer", lambda: inner() + inner())
    outer()
    rec.fold()
    assert rec.totals["x.outer"][0] == 1 and rec.totals["x.inner"][0] == 2
    assert rec.totals["x.outer"][2] >= rec.totals["x.inner"][2]
    assert rec.spans == [] and rec.depth == 0


def _snapshot():
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if name == "cmtwist" or name.startswith("cmtwist.")
            for attr, val in vars(mod).items()}


def test_instrument_rebinds_imported_names_and_restores_them():
    before = _snapshot()
    to_json = cmtwist.cli.Report.to_json
    rec = spans.Recorder()
    restore, lru = spans.instrument(rec)
    try:
        # the name cli imported by value is rebound, as is the package's own
        assert cmtwist.cli.cyclotomic is not before[("cmtwist.cli", "cyclotomic")]
        assert cmtwist.cli.cyclotomic is sys.modules["cmtwist.fields"].cyclotomic
        assert sys.modules["cmtwist"].cyclotomic is cmtwist.cli.cyclotomic
        assert sys.modules["cmtwist.fields"].factorint is not before[("cmtwist.fields", "factorint")]
        assert cmtwist.cli.Report.to_json is not to_json
        assert set(lru) == {"residues.unit_group", "fields.galois_group",
                            "fields.roots_of_unity_order"}
        job = cmtwist.cli.validate_input({"command": "field", "payload": {"field": {"cyclotomic": 21}}})
        cmtwist.cli.run(job).to_json()
        rec.fold()
    finally:
        restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert cmtwist.cli.Report.to_json is to_json
    for name in ("cli.validate_input", "cli.run", "fields.cyclotomic",
                 "residues.invariant_factor_basis", "cli.Report.to_json"):
        assert rec.totals[name][0] >= 1, name


def test_parse_importtime_reads_cumulative_microseconds():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1497 |     296842 |       sympy\n"
            "import time:      9031 |     345191 | cmtwist.cli\n")
    assert spans.parse_importtime(text) == pytest.approx({"sympy": 0.296842, "cmtwist.cli": 0.345191})
