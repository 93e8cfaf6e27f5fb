import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from rgflow.covariance import (load_table, make_schedule,
                               schedule_from_table_file, write_table)


def test_heat_kernel_closed_form_scalar():
    s = make_schedule("heat-kernel", c_infinity=[[1.0]])
    c, cp, cpp = s.eval(np.log(2.0))
    assert_allclose(c[0, 0], 0.5, rtol=0, atol=1e-15)
    assert_allclose(cp[0, 0], 0.5, rtol=0, atol=1e-15)
    assert_allclose(cpp[0, 0], -0.5, rtol=0, atol=1e-15)


def test_pauli_villars_closed_form_scalar():
    s = make_schedule("pauli-villars", aux=[[2.0]])
    c, cp, cpp = s.eval(1.0)
    assert_allclose(c[0, 0], 1.0 / 3.0, atol=1e-15)
    assert_allclose(cp[0, 0], 1.0 / 9.0, atol=1e-15)
    assert_allclose(cpp[0, 0], -4.0 / 27.0, atol=1e-15)


def test_heat_kernel_starts_at_zero():
    s = make_schedule("heat-kernel", c_infinity=np.diag([1.0, 2.0]))
    c, _, _ = s.eval(0.0)
    assert_allclose(c, np.zeros((2, 2)), atol=0)


def test_heat_kernel_diagonal_mobility():
    s = make_schedule("heat-kernel", c_infinity=np.diag([1.0, 2.0]))
    _, cp, _ = s.eval(1.0)
    assert_allclose(cp, np.diag([np.exp(-1.0), np.exp(-0.5)]), rtol=1e-15)


def test_pauli_villars_small_time_limit():
    s = make_schedule("pauli-villars", aux=[[2.0]])
    _, cp0, cpp0 = s.eval(0.0)
    assert_allclose(cp0[0, 0], 1.0, atol=0)
    # series C_t = t - A t^2 + O(t^3), checked against the closed form
    t = 1e-6
    c, _, _ = s.eval(t)
    assert_allclose(c[0, 0], t - 2.0 * t**2, rtol=1e-5)
    assert_allclose(cpp0[0, 0], -4.0, atol=0)


@pytest.mark.parametrize("kind,kwargs", [
    ("heat-kernel", {"c_infinity": [[1.0, 0.2], [0.2, 2.0]]}),
    ("pauli-villars", {"c_infinity": [[1.0, 0.2], [0.2, 2.0]]}),
])
def test_finite_difference_consistency(kind, kwargs):
    s = make_schedule(kind, **kwargs)
    for t in np.geomspace(1e-3, 1e3, 13):
        _, cp, _ = s.eval(t)
        for h in (1e-4, 1e-5):
            ca, _, _ = s.eval(t + h)
            cb, _, _ = s.eval(t)
            fd = (ca - cb) / h
            # first-order one-sided difference: error O(h) * |C''|
            assert np.max(np.abs(fd - cp)) < 10.0 * h + 1e-12


def test_pauli_villars_identities():
    a = np.array([[2.0, -0.7], [-0.7, 1.5]])
    s = make_schedule("pauli-villars", aux=a)
    for t in (0.1, 0.5, 1.0, 3.0, 10.0):
        c, cp, _ = s.eval(t)
        w, u = np.linalg.eigh(cp)
        root = (u * np.sqrt(np.clip(w, 0, None))) @ u.T
        assert np.max(np.abs(root - c / t)) < 1e-10
        resid_inv = np.linalg.inv(s.c_infinity - c)
        assert np.max(np.abs(resid_inv - a @ (t * a + np.eye(2)))) < 1e-10 * (1 + t)


def test_initial_mobility_radius_is_one():
    assert make_schedule("heat-kernel", c_infinity=[[3.0]]).c0_prime_radius == 1.0
    assert make_schedule("pauli-villars", aux=[[0.5]]).c0_prime_radius == 1.0


def _audit(s, t_grid) -> dict:
    """Numerical audit of the schedule invariants of ``s`` on ``t_grid``:
    a dict of worst-case figures for the caller to assert on."""
    t_grid = np.asarray(t_grid, dtype=float)
    mono_min = np.inf
    cp_min = np.inf
    fd_rel = 0.0
    prev = None
    for t in t_grid:
        c, cp, _ = s.eval(t)
        cp_min = min(cp_min, np.linalg.eigvalsh(cp)[0])
        if prev is not None:
            mono_min = min(mono_min, np.linalg.eigvalsh(c - prev)[0])
        prev = c
        scale = max(np.max(np.abs(s.c_infinity)), 1.0)
        if s.kind != "custom-table" and np.max(np.abs(cp)) >= 1e-4 * scale:
            # below 1e-4 * scale the mobility sits under the float
            # roundoff of C itself and central differences are noise
            h = 1e-5 * max(t, 1.0)
            cm = s.eval(max(t - h, 0.0))[0]
            cpl = s.eval(t + h)[0]
            fd = (cpl - cm) / (h + min(t, h))
            fd_rel = max(fd_rel,
                         np.max(np.abs(fd - cp)) / np.max(np.abs(cp)))

    # convergence C_t -> C_inf with a decreasing gap along the tail
    ts = np.sort(t_grid)[-6:]
    eps = [np.linalg.norm(s.c_infinity - s.eval(t)[0], 2) for t in ts]
    return {
        "monotone_min_eig": float(mono_min),
        "cprime_min_eig": float(cp_min),
        "fd_consistency_rel": float(fd_rel),
        "tail_gaps": eps,
        "tail_decreasing": all(b <= a + 1e-12 for a, b in zip(eps, eps[1:])),
    }


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.2, max_value=5.0), min_size=2, max_size=2),
       st.floats(min_value=-0.9, max_value=0.9))
def test_schedule_invariants_random_spd(diag, corr):
    off = corr * np.sqrt(diag[0] * diag[1])
    c_inf = np.array([[diag[0], off], [off, diag[1]]])
    for kind in ("heat-kernel", "pauli-villars"):
        s = make_schedule(kind, c_infinity=c_inf)
        chk = _audit(s, np.geomspace(1e-2, 1e2, 15))
        assert chk["monotone_min_eig"] >= -1e-10
        assert chk["cprime_min_eig"] >= -1e-12
        assert chk["tail_decreasing"]
        assert chk["fd_consistency_rel"] < 1e-6


def test_rejects_asymmetric_matrix():
    with pytest.raises(ValueError, match="not symmetric"):
        make_schedule("heat-kernel", c_infinity=[[1.0, 0.5], [0.0, 1.0]])


def test_rejects_indefinite_matrix_names_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        make_schedule("heat-kernel", c_infinity=[[1.0, 2.0], [2.0, 1.0]])


def test_rejects_negative_time():
    s = make_schedule("heat-kernel", c_infinity=[[1.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        s.eval(-0.5)


def test_custom_table_roundtrip_and_snap(tmp_path):
    base = make_schedule("pauli-villars", aux=[[1.0]])
    t_nodes = np.linspace(0.1, 2.0, 20)
    c = np.stack([base.eval(t)[0] for t in t_nodes])
    cp = np.stack([base.eval(t)[1] for t in t_nodes])
    cpp = np.stack([base.eval(t)[2] for t in t_nodes])
    path = tmp_path / "table.txt"
    write_table(path, t_nodes, c, cp, cpp)

    t2, c2, cp2, cpp2 = load_table(path)
    assert_allclose(t2, t_nodes)
    assert_allclose(c2, c)

    s = schedule_from_table_file(path, c_infinity=[[1.0]])
    got, _, _ = s.eval(0.1049)  # snaps to the nearest node, 0.1
    assert_allclose(got, c[0])


def test_custom_table_rejects_out_of_range(tmp_path):
    path = tmp_path / "one.txt"
    write_table(path, [1.0], [[[0.5]]], [[[0.25]]], [[[-0.25]]])
    s = schedule_from_table_file(path, c_infinity=[[1.0]])
    with pytest.raises(ValueError, match="outside table range"):
        s.eval(2.0)


def test_residual_inverse_rejects_exhausted_flow():
    s = make_schedule("heat-kernel", c_infinity=[[1.0]])
    with pytest.raises(ValueError, match="flow time too large"):
        s.residual_inverse(60.0)
