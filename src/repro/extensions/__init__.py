"""Extensions sketched in the paper's conclusion (Section V).

* :mod:`repro.extensions.dofd1` — d-of-(d+1) batmaps whose position-aligned
  comparison witnesses intersections of up to ``d`` sets.
* :mod:`repro.extensions.multiway` — multi-way intersection with ordinary
  2-of-3 batmaps via per-item membership probes.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "dofd1": "GeneralizedBatmap GeneralizedBatmapFamily multiway_intersection_size",
    "multiway": "MultiwayResult multiway_intersection",
})
