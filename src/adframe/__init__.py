"""Finite laboratory for the duality between preordered topological spaces
and four-relation frames.

The package is organised in layers: ``finord`` holds finite spaces and
lattices, ``frames`` the four-relation frame construction and its
validator, ``duality`` the spectrum and the unit of the adjunction,
``sobrify`` the irreducible-pair sobrification, ``theorems`` the check
registry with sweeps and random generators, and ``cli`` the command line.
"""

from .errors import (AdframeError, BudgetExceeded, ImageNotIrreducible,
                     InternalCheckError, NonDistributiveLattice, NotALattice,
                     NotAPointMap, NotAPreorder, NotATopology, NotContinuous,
                     NotMonotone, TooLarge, TrivialFrame, UnknownTheorem)
from .bits import bits_of, full_mask, is_subset
from .finord import (FinLattice, FinPreTopSpace, FinTopSpace, LatticeAnalysis,
                     class_of, closure, distributivity_witness,
                     equivalence_classes, interior, irreducible_closed_sets,
                     lattice_analyze, lattice_from_json, lattice_from_labels,
                     lattice_from_leq, lattice_to_json, make_space,
                     make_topology, point_classes, point_closures,
                     space_from_json, space_to_json, specialization_preorder,
                     subset_lattice, upset_family)
from .frames import (AdFrame, AdFrameHom, Variant, adframe_from_json,
                     adframe_to_json, bnd_map, bounded_lattice_homs,
                     build_ado, build_ado_hom, check_usc_lsc, compose_homs,
                     epsilon_hom, ind_functor, validate_adframe, validate_hom)
from .duality import (AdPoint, SoberResult, Spectrum, adpt_hom, adpt_space,
                      enumerate_points, eta_map, is_ad_sober, is_ad_t0,
                      pullback_point, transpose)
from .sobrify import (AdsSpace, IrreduciblePair, ads_adpt_iso, ads_hom,
                      ads_space, canonical_pairs, irreducible_pairs,
                      standard_sobrification)
from .theorems import (CheckReport, Instance, SweepSpec, enumerate_preorders,
                       enumerate_spaces, enumerate_topologies, generate_random,
                       instances_for_payload, iso_check, registry_doc,
                       registry_ids, run_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
