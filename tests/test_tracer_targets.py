"""The benchmark tracer finds every program name it wraps.

perfbench/tracer.py resolves its targets by name at install time, so a
renamed or deleted function breaks ``perfbench/run.py --trace 1``. The
benchmark's own tests are not part of this suite, so this guard is. It only
resolves names: no run starts and nothing is timed.
"""

import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("target", sorted(TRACER.FUNCTIONS.values()) + list(TRACER.SCORE_METHODS))
def test_target_resolves(target):
    owner, attr = TRACER._resolve(target)
    assert callable(getattr(owner, attr, None)), target


def test_broad_match_is_a_module_global():
    # install() replaces matching.broad_match to count candidates per query
    owner, attr = TRACER._resolve("adexpand.matching:broad_match")
    assert callable(getattr(owner, attr, None))
