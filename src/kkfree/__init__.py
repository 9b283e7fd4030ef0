"""Exact incidence-graph toolkit for point/range families that forbid an
induced complete bipartite subgraph.

Each name is imported from the module that defines it, for instance
``from kkfree.incidence import find_kkk``; this package imports none of
its modules.
"""
