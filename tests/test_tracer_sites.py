"""Every site the perfbench span tracer patches still names a function.

A renamed ``Hypernet.generate``/``backward``, or a name ``train`` no longer
imports, would otherwise show only as a "missing site" note in a later bench
run."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
SITES = [site for _, sites, _ in tracer.TRACED for site in sites]


def test_all_sites_are_listed():
    assert len(SITES) == 22


@pytest.mark.parametrize("site", SITES)
def test_site_resolves_to_a_function(site):
    _, _, fn = tracer._resolve(site)
    assert callable(fn), site
