"""Plumbing-tree calculator for Heegaard Floer kernel ranks.

Builds negative-definite plumbing forests (stars for Seifert fibered
spaces, Brieskorn homology spheres among them), then counts the good
initial associations of the combinatorial cube-assignment game on the
graph; each one generates a summand of the kernel of the U action, so
the count lower-bounds that kernel's rank and equals it on the graphs
this package targets.

The names below are the short path to a Brieskorn count; everything
else is imported from its module (``plumbhf.graph``, ``plumbhf.report``,
``plumbhf.errors`` and so on).
"""

from .contfrac import expand_cf
from .game import Association, AssociationGame
from .graph import blow_down, graph_determinant
from .seifert import brieskorn, star_graph

__version__ = "0.1.0"
