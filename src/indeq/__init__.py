"""Exact independence polynomials and the equivalence classes of paths and cycles.

The API is the modules; import each one on its own
(``from indeq.polyalg import IntPoly``):

- ``graphcore``: the records' base, graphs, the family specs and their builder, canonical forms, graph6 I/O
- ``polyalg``: exact integer polynomials, Sturm chains, real-root counting and isolation
- ``indpoly``: the independence polynomial evaluator and its brute-force twin
- ``factorbasis``: cyclotomic polynomials and the f_n / f~_n basis factorization
- ``classify``: eliminations, screens, the shortlist and the path/cycle class listers
- ``oracle``: exhaustive enumeration and the brute-force and cover class searches
- ``checks``: the verification registry behind ``indeq verify``
- ``cli``: the ``indeq`` command
"""
