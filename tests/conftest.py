import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from goldfishlab import dynamics, symfun


@st.composite
def configurations(draw, min_n=2, max_n=6, min_gap=0.15, max_gap=1.0, bound=3.0):
    """Strictly increasing position vectors with bounded entries and gaps."""
    n = draw(st.integers(min_n, max_n))
    gaps = draw(
        st.lists(
            st.floats(min_gap, max_gap, allow_nan=False),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    span = float(np.sum(gaps))
    assume(span <= 2.0 * bound)
    start = draw(st.floats(-bound, bound - span, allow_nan=False))
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


@st.composite
def velocity_like(draw, n, low=0.5, high=1.5):
    values = draw(st.lists(st.floats(low, high, allow_nan=False), min_size=n, max_size=n))
    return np.asarray(values)


@st.composite
def states(draw, min_n=2, max_n=6, **kwargs):
    q = draw(configurations(min_n=min_n, max_n=max_n, **kwargs))
    v = draw(velocity_like(len(q)))
    return q, v


# one N = 3 configuration per system: its config fields and its simulate CSV header
Q0, V0 = [-1.0, 0.2, 1.5], [1.0, 0.7, 1.2]
_JAC = symfun.jacobian(Q0)
SYSTEM_CONFIGS = {
    "goldfish": ({"q0": Q0, "qdot0": V0}, "t,q1,q2,q3,qdot1,qdot2,qdot3"),
    "ecm": (
        {"q0": Q0, "p0": V0, "f0": dynamics.f_from_velocities(Q0, V0).tolist()},
        "t,q1,q2,q3,p1,p2,p3,f_1_2,f_1_3,f_2_3",
    ),
    "matrix": ({"q0": Q0, "qdot0": V0}, "t,q1,q2,q3"),
    "geodesic": ({"q0": Q0, "p0": (_JAC.T @ _JAC @ V0).tolist()}, "t,q1,q2,q3,pi1,pi2,pi3"),
    "hyperbolic-sinh": ({"a": 0.5, "a_vec": Q0, "c_vec": V0}, "t,q1,q2,q3,qdot1,qdot2,qdot3"),
    "hyperbolic-coth": ({"a_vec": Q0, "c_vec": V0}, "t,q1,q2,q3,qdot1,qdot2,qdot3"),
}
