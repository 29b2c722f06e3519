"""Identical calls give identical bytes across changes: every entry of the
golden corpus reruns and must print what ``tests/golden/`` recorded.  A
change that moves output on purpose regenerates the entries it moves with
``tests/make_golden.py`` and names them."""

import json

from make_golden import ENTRIES, GOLDEN, platform_record, run_entry


def test_every_call_prints_its_recorded_bytes():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted([*ENTRIES, "numpy"])
    changed = [
        name
        for name in ENTRIES
        if run_entry(name) != json.loads((GOLDEN / f"{name}.json").read_text(encoding="ascii"))
    ]
    recorded = json.loads((GOLDEN / "numpy.json").read_text(encoding="ascii"))
    assert not changed, (
        f"output differs from tests/golden for {changed}; "
        f"recorded with {recorded}, running {platform_record()}"
    )
