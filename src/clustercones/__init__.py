"""Exact cones of bounded Laurent monomials in finite-type cluster variables.

Import each module by name; the package itself exports nothing.

    laurent       sparse Laurent polynomials over the integers, exact division
    seeds         exchange matrices, mutation and seed files
    finite_type   the Dynkin catalog, its recognition, and the bipartite belt
    uvars         the u-variables of a belt and their degeneration rays
    linalg        exact integer linear algebra: rref, rank, kernel, solve
    cones         the u-exponent matrix U, membership certificates, and cones
    expressions   the ratio grammar that reads and prints user input
    grassmannian  Plucker cluster structures, ray tables and the 4x8 table
    cli           the command-line interface
"""
