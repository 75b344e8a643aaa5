"""The names the benchmark harness in perfbench/ reaches into hashmac for.

The traced run wraps every `spans.SITES` entry, and the set-up job validates
each workload config through `cli._law_and_builder`.  A refactor that drops
or renames one of those names breaks the harness only when it runs; these
tests make it fail here instead.  They only read perfbench/.
"""

import importlib
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves_to_a_callable():
    spans = _load("spans")
    assert spans.SITES
    for module, attr, _ in spans.SITES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


@pytest.mark.parametrize("config", sorted(BENCH.glob("configs/*.json")), ids=lambda p: p.stem)
def test_setup_job_validates_each_workload_config(config):
    assert "setup_done" in _load("worker").setup({"config": str(config)})
