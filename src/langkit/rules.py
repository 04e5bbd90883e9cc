"""Registry of the named rules cited by derivation logs.

Every derivation step carries exactly one rule id; the registry maps each
id to a self-contained statement so reports are checkable without outside
context.  Open-question choices are tracked separately: steps that rely on
one add a warning, and strict mode refuses to use them.
"""

RULES = {
    "aux-pole-duality": (
        "the auxiliary factor (alternating square, symmetric square, or the "
        "sign-matched twisted tensor factor) has a simple pole at 1 exactly when "
        "the duality type of the inducing record matches it"
    ),
    "central-nonvanishing-gate": (
        "a pole of the quotient at the half point requires the pair factor not to "
        "vanish there; a declared central zero removes the pole"
    ),
    "denominator-regular": (
        "the denominator factors sit at 3/2 and 2, where pair and auxiliary "
        "factors are regular and nonzero"
    ),
    "normalized-operator-region": (
        "normalized local intertwining operators are holomorphic on Re(s) ≥ 1/2 "
        "and not identically zero on Re(s) = 1/2, so local factors neither create "
        "nor destroy the pole"
    ),
    "epsilon-units": (
        "epsilon factors inside normalization quotients are holomorphic and "
        "nonvanishing, hence order-0 units everywhere"
    ),
    "residual-parameter": (
        "a pole at the half point produces a square-integrable residue whose "
        "discrete parameter is the ladder-2 extension of the block record plus "
        "the core record"
    ),
    "rational-structure-transport": (
        "the square-integrable spectrum in cohomology carries a rational "
        "structure, so a coefficient automorphism moves an eigensystem to "
        "another eigensystem of the same kind"
    ),
    "satake-transport": (
        "unramified eigenvalue data transport along the twisted coefficient "
        "action; the sign bookkeeping of the base-change chain matches the "
        "direct target form"
    ),
    "support-uniqueness": (
        "multiset matching of (label, shift) pairs leaves exactly one induction "
        "datum up to associates: the ladder-2 record at shift 1/2 over the core"
    ),
    "pole-back-transport": (
        "the transported residue forces the transported quotient to have a pole "
        "at the half point, hence the transported pair value is nonzero"
    ),
    "arch-sign-multiset-invariance": (
        "the archimedean sign product depends only on the multiset of "
        "per-embedding exponent pairs, hence is fixed by every relabeling"
    ),
    "discriminant-sign-relation": (
        "the sign of the discriminant equals (-1)^{number of complex places}, "
        "collapsing the two transport-ratio contributions to 1"
    ),
    "order-parity": (
        "the functional equation pairs s with 1-s, so the sign +1 (resp. -1) "
        "forces even (resp. odd) central vanishing order"
    ),
    "ratio-bound-positive": (
        "a factor whose argument has positive real part on the region, with "
        "tempered inducing data, is holomorphic and nonzero there"
    ),
    "gl-block-window": (
        "normalized rank-one operators between discrete-series blocks are "
        "holomorphic for argument real part > -1 and invertible for |real part| "
        "< 1"
    ),
    "positivity-holomorphy": (
        "non-normalized rank-one operators with positive-real-part argument are "
        "holomorphic"
    ),
    "dichotomy": (
        "a declared central zero is itself transported: both sides vanish and "
        "the equivalence holds in the vanishing direction"
    ),
}

# choices resolving documented ambiguities; strict mode refuses them
OPEN_CHOICES = {
    "word-length-additivity": (
        "composite intertwining words decompose additively in length"
    ),
    "chain-final-halves": (
        "the transported base-change identity ends with the two opposite half "
        "shifts"
    ),
    "half-plane-region": (
        "the normalized-operator region Re(s) ≥ 1/2 is used uniformly"
    ),
    "complex-place-count-parity": (
        "the complex-place sign factor requires an even product with the degrees"
    ),
}


def cite(rule_id: str) -> str:
    if rule_id not in RULES:
        raise KeyError(f"unknown rule id {rule_id!r}")
    return rule_id


def cited(claim: str, rule_id: str, **label) -> dict:
    """The report form of the derivation step (claim, rule id), with its
    label, such as step=1 or part="gl-blocks", if it has one."""
    return {**label, "claim": claim, "citation": cite(rule_id)}
