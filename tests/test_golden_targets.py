"""Every program compiles to the same target text as the pinned fixture.

``tests/fixtures/golden_targets.json`` holds ``str(target)`` of each program
in ``repro.programs.PROGRAMS``, compiled for its declared outputs with the
optimizer on and off.  A compiler change that is meant to be output-neutral
(a faster normalizer, a faster lexer) must leave every text byte-identical;
one that changes a target on purpose regenerates the fixture with::

    PYTHONPATH=src python tests/test_golden_targets.py

The text must not depend on set or dict iteration order, so CI also runs
this module under more than one ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.evaluation.harness import diablo_for
from repro.programs import PROGRAMS
from repro.runtime.context import DistributedContext

FIXTURE = Path(__file__).parent / "fixtures" / "golden_targets.json"
MODES = {"optimize": True, "unoptimized": False}


def compile_target(name: str, optimize: bool) -> str:
    spec = PROGRAMS[name]
    with DistributedContext(num_partitions=2) as context:
        return str(diablo_for(spec, context, optimize=optimize).compile(spec.source).target)


def _golden() -> dict[str, dict[str, str]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_program():
    golden = _golden()
    assert set(golden) == set(MODES)
    for mode in MODES:
        assert sorted(golden[mode]) == sorted(PROGRAMS)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_target_matches_golden(name, mode):
    assert compile_target(name, MODES[mode]) == _golden()[mode][name]


if __name__ == "__main__":
    targets = {
        mode: {name: compile_target(name, optimize) for name in sorted(PROGRAMS)}
        for mode, optimize in MODES.items()
    }
    FIXTURE.write_text(json.dumps(targets, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
