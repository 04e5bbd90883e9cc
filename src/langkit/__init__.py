"""langkit: exact bookkeeping for residual Eisenstein constant terms.

Submodules
----------
weyl        root data, signed-permutation words, coset representatives
groups      group/Levi descriptors, modular characters, dual radical grading
satake      symbolic Satake eigenvalue calculus and coefficient transport
dual        the operator on the degree-2 piece of the dual radical
spectra     formal cuspidal records and discrete-spectrum parameters
arch        infinitesimal characters, regularity predicates, sign formulas
eisenstein  constant-term quotients, pole decisions, the full pipeline
normalizer  quasi-tempered decompositions and normalization factors
cli         scenario files, command dispatch, reports
"""

__version__ = "0.1.0"
