"""The 35 registered identities, pinned field by field.

A change to how identities are declared must leave every name, parameter
tuple, description, relation and domain as it was. Each domain is pinned
by the points of the n<=20, l<=10, m<=5 grid that it admits, in the order
a sweep visits them (the product of the verifier's _axes): their count and
the sha256 of the repr of their tuple.
"""

import hashlib
from itertools import product

from supercatalan.verifier import REGISTRY, GridBounds, _axes

GRID = GridBounds(n_max=20, l_max=10, m_max=5)

# point sets shared by several domains, named after their domain
POINT_SETS = {
    "n,l": (231, "e641b56547cafca9745a6c3eb35c161c04e0bd1672a891be14146af49ac2a6cc"),
    "n": (21, "a9851e42224c80ae4caa07fc782f4fadf3570c2bee424d8ea2d6e13b8ca015a8"),
    "n,l,t<=n": (2541, "0bc921bfc2934545b7555c68236a86c00956cbfbc8123014229c516b5309d4c2"),
    "n,t<=n": (231, "a42c202ace444f4484f024810642197ce967b75d4ea6ccf40423114b5036f2ae"),
    "n,l,t<n": (2310, "0418cac1beebaa3ebdd7811565aa01b692e3876993293b528d20c76df6b897f8"),
    "l>=1": (10, "8a8647cdbfc22e6f9a87b76ec22601cb9d9363effa1b84ba5fa52cfa8e0edaf2"),
    "n,l,2t<n": (1210, "e359e691c311a151caf6b7974e0f85e48060113962b8610944f9157a943a687d"),
    "n,l,2t<=n": (1331, "b84cc8a8a37562990cf611e094899a0f38c72de1771acfb6370dc40e432656e0"),
    "n,l,m>=2": (924, "3b6430fd7f37e8ce2651b12a558ca619a714845e24163731e6fd0edf7d77e6f1"),
    "n,l,1<=t<=3": (693, "099430231dd877cdf8836fd3f270c5134dc3e04e5f2a8c93a3ec27077ef782f9"),
    "n,l,m": (1155, "34b6e5d852545d37c498c59827ce86f55581d0059c74620d5e0fe940204ed21e"),
    "n,l>=1": (210, "33931d1df276102b32f417d494c766b1d1fea2faf8484e09dce6d0bb20fca71b"),
    "n,l>=1,m": (1050, "dc2cfc9cb836c6f340e712410b35241b9fb1c228e94915184d63fcff68e83f4c"),
    "(4,2,1)": (1, "20f782377120d01ded22287620e5e1f7ef36e74996e5278133109367e2865ad1"),
}

NL, NLT, NLM = ("n", "l"), ("n", "l", "t"), ("n", "l", "m")

# name: (params, relation, point set, description), in registration order
PINNED = {
    "vonszily": (NL, "equal", "n,l",
                 "alternating binomial sum for S(n,l) equals the closed ratio form"),
    "symmetry": (NL, "equal", "n,l", "S(n,l) = S(l,n)"),
    "parity": (NL, "equal", "n,l", "S(n,l) is even except S(0,0) = 1"),
    "thm1": (NL, "equal", "n,l", "psi(2n,1,l) = S(n,l) S(n+l,n)"),
    "eq2": (("n",), "equal", "n",
            "l=0 convolution row over central binomials equals binomial(2n,n)^2"),
    "eq3": (("n",), "equal", "n",
            "l=1 convolution row over Catalan numbers equals catalan(n) binomial(2n,n)"),
    "thm2": (NLT, "equal", "n,l,t<=n",
             "window-t alternating convolution of length 2n equals phi(n,l,t)"),
    "eq8": (("n", "t"), "equal", "n,t<=n", "closed binomial form of psi_t(2n,t,0)"),
    "eq9": (("n", "t"), "equal", "n,t<=n", "closed Catalan form of the window-t l=1 row"),
    "eq18": (NLT, "equal", "n,l,t<=n", "psi_t(2n,t,l) = phi(n,l,t)"),
    "eq20": (NLT, "equal", "n,l,t<n", "psi_t vanishes at odd length 2n-1"),
    "eq22": (NL, "equal", "n,l", "full window: psi_t(2n,n,l) = (-1)^n S(n,l)^2"),
    "eq28": (NLT, "equal", "n,l,t<=n", "p_sum(2n,t,l) = (n-t) psi_t(2n,t,l)"),
    "eq29": (NLT, "equal", "n,l,t<=n", "(n+l+1) r_prime_sum(2n,t,l) = r_sum(2n,t,l)"),
    "eq33": (("l",), "equal", "l>=1", "central binomial ratio: l cb(l) = 2(2l-1) cb(l-1)"),
    "eq47": (NLT, "equal", "n,l,2t<n",
             "p_sum at any length n from psi_t and r_sum at length n-1"),
    "eq51": (NLT, "equal", "n,l,2t<=n",
             "t_sum(n,t,l) = (n+l+1-t) r_sum(n,t,l) - (2l+1) psi_t(n,t,l)"),
    "eq53": (NLT, "equal", "n,l,2t<=n",
             "t_sum(n,t,l) as a weighted alternating sum one length down"),
    "eq58": (NLT, "equal", "n,l,t<=n", "r_dprime_sum(2n,t,l) = n r_prime_sum(2n,t,l)"),
    "lemma1": (NLT, "equal", "n,l,t<n",
               "cleared form: 2(2n-1-2t)(2n-1) psi_t(2n-2,t,l+1) = "
               "(2n+l-t)(2l+1) psi_t(2n,t,l)"),
    "lemma2": (NLT, "equal", "n,l,t<=n",
               "cleared form: 4(2l+1) r_sum(2n,t,l) = (n+l+1) psi_t(2n,t,l+1)"),
    "lemma3": (NLT, "equal", "n,l,t<n", "psi_t(2n,t,l) = 4 r_sum(2n-1,t,l) for t < n"),
    "lemma4": (NLT, "equal", "n,l,t<n",
               "cleared form: (2n+l-t)(n+l) r_sum(2n-1,t,l) = "
               "2(2n-1-2t)(2n-1) r_sum(2n-2,t,l)"),
    "eq64phi": (NLT, "equal", "n,l,t<n",
                "cleared phi recurrence linking (n, l+1) to (n+1, l)"),
    "eq12": (NLM, "equal", "n,l,m>=2",
             "psi(n,m,l) = level engine at j=0, level m-2 (any length parity)"),
    "eq13": (NLT, "equal", "n,l,1<=t<=3",
             "level recurrence equals direct evaluation at level t, all window "
             "offsets, both summands"),
    "eq17": (NLT, "equal", "n,l,2t<=n",
             "base layer over a_t windows equals direct level 0; t column is the "
             "window offset j"),
    "eq94": (NLT, "equal", "n,l,t<=n",
             "scaled closed form of binomial(2n-t,t) psi_t(2n,t,l)"),
    "eq104": (NL, "equal", "n,l",
              "psi(2n,2,l) = S(n,l) times an explicit integer cofactor"),
    "thm3": (NLM, "equal", "n,l,m",
             "S(n,l) divides psi(2n,m,l), with the constructive witness quotient"),
    "remark1": (NL, "equal", "n,l", "product form of psi(2n,1,l) over four binomials"),
    "remark2": (NL, "remainder-zero", "n,l>=1", "2 S(n,l) divides psi(2n,2,l) for l >= 1"),
    "remark3": (NLM, "remainder-zero", "n,l>=1,m",
                "2 S(n,l) divides psi(2n,m,l) for l >= 1"),
    "remark4": (NLM, "remainder-nonzero", "(4,2,1)",
                "counterexample: binomial(2n,n) does not divide psi(2n,m,l) at "
                "n=4, m=1, l=2 (the recorded lhs is the nonzero remainder)"),
    "dlevel1": (NLT, "equal", "n,l,t<=n",
                "level-1 layer D(2n,j,1) equals (-1)^j S(n,l) times its integer "
                "witness cofactor; t column is the window offset j"),
}


def _point_set(spec):
    points = tuple(p for p in product(*_axes(spec, GRID)) if spec.domain(*p))
    return len(points), hashlib.sha256(repr(points).encode()).hexdigest()


def test_registry_declarations_are_pinned():
    assert list(REGISTRY) == list(PINNED)
    for name, (params, relation, point_set, description) in PINNED.items():
        spec = REGISTRY[name]
        assert spec.name == name
        assert spec.check.__name__ == f"_check_{name}"
        assert (spec.params, spec.relation, spec.description) == \
            (params, relation, description), name
        assert _point_set(spec) == POINT_SETS[point_set], name
    # every record of the n<=20, l<=10 sweep
    assert sum(POINT_SETS[p][0] for _, _, p, _ in PINNED.values()) == 43245
