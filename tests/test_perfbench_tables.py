"""The names that perfbench's tracer wraps exist in structbandit.

`perfbench/spans.py` reads each traced function from the first place its
tables list, the agent classes' select/observe, `Environment.pull` and the
process pool class, and at span exits the attributes of live agents and
their history records.  A deletion or rename in structbandit fails here
rather than in a traced benchmark run.  The tables and attributes are read;
nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"structbandit.{name}")


def test_traced_functions_resolve(spans):
    for table in (spans._SPANNED, spans._COUNTED):
        for name, places in table.items():
            module, attr = places[0]
            assert callable(getattr(_module(module), attr, None)), (name, module, attr)


def test_traced_classes_resolve(spans):
    algorithms = _module("algorithms")
    assert callable(algorithms.Environment.pull)
    for tag, cls_name in spans._AGENTS.items():
        cls = getattr(algorithms, cls_name)
        assert callable(cls.select) and callable(cls.observe), tag
    assert isinstance(_module("simulation").ProcessPoolExecutor, type)


def test_traced_attributes_resolve():
    # _after_simulate: config.algorithm, and history as a tuple of records
    # with active_arms and pull_counts; _after_sucb_select: SUCB's
    # snapshot().active_models and structure.model_count
    algorithms = _module("algorithms")
    structure = _module("structures").build_figure_right()
    sae = algorithms.make_agent(structure, algorithms.AgentConfig("sae", horizon=2000))
    result = algorithms.simulate(sae, algorithms.Environment(structure, seed=0), 2000)
    assert sae.config.algorithm == "sae"
    history = sae.history
    assert isinstance(history, tuple) and len(history) > 1
    for record, following in zip(history, history[1:] + (None,)):
        end = sum(result.pull_counts) if following is None else sum(following.pull_counts)
        assert sum(record.pull_counts) <= end
        assert 1 <= len(record.active_arms) <= structure.arm_count
    sucb = algorithms.SucbAgent(structure, algorithms.AgentConfig("sucb"))
    sucb.select()
    assert sucb.snapshot().active_models == tuple(range(sucb.structure.model_count))
