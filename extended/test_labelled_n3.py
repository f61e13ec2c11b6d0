"""The extended gate: exhaustive runs too slow for tier-1, with frozen counts.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q extended

Tier-1 (``pytest``) collects only ``tests/`` and so never runs these.
"""

import pytest

from adframe import FinTopSpace, run_check
from adframe.theorems import (HOM_FAMILIES, TOP_MORPHISMS, SweepSpec,
                              continuous_maps, enumerate_spaces,
                              enumerate_topologies, pretop_maps)


def test_labelled_n3_map_counts():
    """4,473,075 continuous monotone maps between the 841 labelled
    three-point spaces, and 9,867 continuous maps between the 29 labelled
    three-point topologies."""
    spaces = enumerate_spaces(3)
    assert sum(len(pretop_maps(a, b)) for a in spaces for b in spaces) == 4_473_075
    tops = [FinTopSpace(3, fam) for fam in enumerate_topologies(3)]
    assert sum(len(continuous_maps(a, b)) for a in tops for b in tops) == 9_867


@pytest.mark.parametrize("cid", ["NAT-IND", "NAT-DISCR"])
def test_naturality_on_every_labelled_n3_topology_map(cid):
    """Every (map, variant) instance of the labelled three-point topology
    maps, which a sweep at n = 3 only samples, passes."""
    instances = TOP_MORPHISMS.every(SweepSpec(n=3), *TOP_MORPHISMS.pool(3))
    verdicts = [report.verdict for report in run_check(cid, instances=instances)]
    assert len(verdicts) == 3 * 9_867
    assert set(verdicts) == {"pass"}


def test_ind_adj_on_every_labelled_n3_hom_family():
    """Every labelled three-point hom family, which a sweep at n = 3 only
    samples, passes IND-ADJ: 73,167 instances."""
    instances = HOM_FAMILIES.every(SweepSpec(n=3), *HOM_FAMILIES.pool(3))
    verdicts = [report.verdict for report in run_check("IND-ADJ", instances=instances)]
    assert len(verdicts) == 73_167
    assert set(verdicts) == {"pass"}
