"""Sweep runners, CSV format contract, and CLI exit codes."""

import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from nhchain import __version__, cli
from nhchain.cli import (
    CliUsageError,
    CsvTable,
    SweepAxis,
    SweepSpec,
    main,
    run_correlations,
    run_ep,
    run_evolve,
    run_gap_sweep,
    run_qfi_sweep,
    run_scaling,
    run_spectrum,
)
from nhchain.hamiltonian import ChainParams, build_total
from nhchain.spectral import dense_eigenvalues, evolve, solve_steady_state, spectral_order

IM_REF = [
    -0.12679491924311226,
    -0.4732050807568877,
    -0.5267949192431123,
    -0.8732050807568877,
]


def parse_csv(text: str):
    lines = text.strip().split("\n")
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    return comments, header, rows


def test_spectrum_reference_point():
    spec = SweepSpec(subcommand="spectrum", n=2, j=0.3, h=0.1)
    table = run_spectrum(spec)
    assert table.header == ["index", "re_lambda", "im_lambda"]
    assert len(table.rows) == 4
    ims = [row[2] for row in table.rows]
    assert ims == pytest.approx(IM_REF, abs=1e-10)
    res = [row[1] for row in table.rows]
    assert res == pytest.approx([0.0] * 4, abs=1e-12)


def test_spectrum_header_line_exact():
    spec = SweepSpec(subcommand="spectrum", n=2, j=0.0, h=0.0)
    text = run_spectrum(spec).to_string()
    data_lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    assert data_lines[0] == "index,re_lambda,im_lambda"


def test_spectrum_rejects_large_chain(monkeypatch):
    # the cap is on the 2^N output rows, checked before any mode is computed
    def no_modes(p):
        raise AssertionError("modes computed for a refused spectrum")

    monkeypatch.setattr(cli, "majorana_modes", no_modes)
    with pytest.raises(CliUsageError, match=r"2\^N rows and is limited to N <= 16"):
        run_spectrum(SweepSpec(subcommand="spectrum", n=17, j=0.1))


def test_spectrum_from_modes_matches_dense_at_twelve_sites(monkeypatch):
    # inside the gapped region every eigenvalue is purely imaginary up to
    # rounding, so the two spectral orders agree element by element.  The
    # dense oracle is a real eigensolve: with site 1 the most significant bit
    # and up spin bit 0, d_s = prod_{n up in s} phi_n for
    # phi_n = i^[n odd] e^{i theta (-1)^(n+1)} makes diag(d) iH diag(d)^-1
    # real, as every bond flip then picks up +-i and the edge flip loses
    # its phase
    p = ChainParams(N=12, J=0.23, h=0.2, theta=0.7)
    H = build_total(p).csr.tocoo()
    n = np.arange(1, p.N + 1)
    phi = np.where(n % 2, 1j, 1.0) * np.exp(1j * p.theta * (-1.0) ** (n + 1))
    up = (np.arange(H.shape[0])[:, None] >> (p.N - n)) & 1 == 0
    d = np.prod(np.where(up, phi, 1.0), axis=1)
    entries = 1j * H.data * d[H.row] * d[H.col].conj()
    assert np.abs(entries.imag).max() <= 1e-15
    R = np.zeros(H.shape)
    R[H.row, H.col] = entries.real
    w = -1j * scipy.linalg.eigvals(R, overwrite_a=True)
    dense = w[spectral_order(w)]

    def no_dense(*args):
        raise AssertionError("many-body operator built for a spectrum")

    monkeypatch.setattr(cli, "build_total", no_dense)
    monkeypatch.setattr("nhchain.spectral.build_total", no_dense)
    monkeypatch.setattr("nhchain.spectral.dense_eigenvalues", no_dense)
    spec = SweepSpec(subcommand="spectrum", n=12, j=0.23, h=0.2, theta=0.7)
    rows = run_spectrum(spec).rows
    assert [r[0] for r in rows] == list(range(4096))
    got = np.array([complex(r[1], r[2]) for r in rows])
    assert np.all(np.abs(got - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))


def test_spectrum_orders_ties_past_the_boundary_by_real_part():
    # past the boundary lambda and -conj(lambda) share one imaginary part,
    # which the two eigensolves round differently; spectral_order takes such
    # a group as a tie and orders it by Re, so the orders agree here too
    p = ChainParams(N=6, J=0.4, h=0.2, theta=0.7)
    dense = dense_eigenvalues(build_total(p))
    spec = SweepSpec(subcommand="spectrum", n=6, j=0.4, h=0.2, theta=0.7)
    got = np.array([complex(r[1], r[2]) for r in run_spectrum(spec).rows])
    assert np.all(np.abs(got - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))


def test_spectrum_decoupled_chain():
    table = run_spectrum(SweepSpec(subcommand="spectrum", n=2, j=0.0, h=0.0))
    ims = [row[2] for row in table.rows]
    assert ims == pytest.approx([0.0, -0.5, -0.5, -1.0], abs=1e-12)


def test_gap_sweep_matches_closed_form():
    spec = SweepSpec(
        subcommand="gap",
        n=2,
        axes=(SweepAxis("j", 0.0, 0.45, 4), SweepAxis("h", 0.0, 0.2, 3)),
    )
    table = run_gap_sweep(spec)
    assert table.header == ["J", "h", "gap"]
    assert len(table.rows) == 12
    # row-major J outer, h inner
    assert [r[0] for r in table.rows[:3]] == pytest.approx([0.0, 0.0, 0.0])
    for J, h, gap in table.rows:
        a2 = 1 - 4 * J**2
        b2 = a2 - 16 * h**2
        expected = 0.5 * np.sqrt(b2) if b2 > 0 else 0.0
        tol = 1e-10 if b2 > 1e-6 else 1e-8
        assert gap == pytest.approx(expected, abs=tol)


def test_gap_sweep_single_point():
    spec = SweepSpec(subcommand="gap", n=2, j=0.0, h=0.0)
    table = run_gap_sweep(spec)
    assert len(table.rows) == 1
    assert table.rows[0][2] == pytest.approx(0.5, abs=1e-12)


def test_qfi_sweep_matches_closed_form():
    spec = SweepSpec(
        subcommand="qfi",
        n=2,
        h=0.1,
        target="h",
        axes=(SweepAxis("j", 0.05, 0.4, 5),),
    )
    table = run_qfi_sweep(spec)
    assert table.header == ["N", "J", "h", "target", "qfi", "error"]
    for row in table.rows:
        J, qfi = row[1], row[4]
        assert row[5] == ""
        assert qfi == pytest.approx(16.0 / (1 - 4 * J**2 - 0.16), rel=1e-3)


def test_qfi_sweep_grows_with_size():
    spec = SweepSpec(
        subcommand="qfi",
        j=0.23,
        h=0.2,
        target="h",
        axes=(SweepAxis("n", 2, 6, 3),),
    )
    table = run_qfi_sweep(spec)
    vals = [row[4] for row in table.rows]
    assert [row[0] for row in table.rows] == [2, 4, 6]
    assert vals[0] < vals[1] < vals[2]


def test_qfi_sweep_angle_without_field_is_zero():
    spec = SweepSpec(subcommand="qfi", n=2, j=0.3, h=0.0, target="theta")
    table = run_qfi_sweep(spec)
    assert table.rows[0][4] == pytest.approx(0.0, abs=1e-6)


def test_qfi_sweep_emits_nan_rows_near_coalescence():
    # J = 0.3, h = 0.2 sits on the closure: the solver refuses, the sweep
    # keeps going and tags the row
    spec = SweepSpec(
        subcommand="qfi",
        n=2,
        h=0.2,
        target="h",
        axes=(SweepAxis("j", 0.1, 0.3, 2),),
    )
    table = run_qfi_sweep(spec)
    good, bad = table.rows
    assert good[5] == "" and np.isfinite(good[4])
    assert bad[5] == "ep_proximity" and np.isnan(bad[4])


def test_main_qfi_golden_row(capsys):
    # the exact Gaussian QFI has no step and no Richardson change to report
    assert main(["qfi", "--n", "2", "--j", "0.3", "--h", "0.1"]) == 0
    _, header, [row] = parse_csv(capsys.readouterr().out)
    assert header == ["N", "J", "h", "target", "qfi", "error"]
    assert row[5] == ""
    assert float(row[4]) == pytest.approx(16.0 / 0.48, rel=1e-12)


def test_main_qfi_at_two_hundred_sites(capsys):
    assert main(["qfi", "--n", "200", "--j", "0.23", "--h", "0.2"]) == 0
    _, _, [row] = parse_csv(capsys.readouterr().out)
    assert np.isfinite(float(row[4])) and row[5] == ""


def test_main_qfi_has_no_closed_form_method(capsys):
    # the exact QFI reproduces the two-site closed form, and qfi takes no
    # --method at all
    argv = ["qfi", "--n", "2", "--j", "0.3", "--h", "0.1", "--method", "analytic2"]
    assert main(argv) == 1
    assert "unrecognized arguments: --method analytic2" in capsys.readouterr().err


def test_main_qfi_refuses_a_non_finite_matrix_per_row(capsys):
    # h = 1e308 is a finite flag value, but the Majorana matrix overflows
    with np.errstate(over="ignore"):
        assert main(["qfi", "--n", "3", "--j", "0.1", "--h", "1e308"]) == 0
    _, _, [row] = parse_csv(capsys.readouterr().out)
    assert row[4:] == ["nan", "domain"]


def test_main_qfi_overflowing_field_is_a_domain_row_with_no_numpy_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["qfi", "--n", "3", "--j", "0.1", "--h", "1e308"]) == 0
    out, err = capsys.readouterr()
    _, _, [row] = parse_csv(out)
    assert row[4:] == ["nan", "domain"]
    assert err == ""


def test_main_overflowing_coupling_is_refused_with_no_numpy_warning(capsys):
    # J^2 past the doubles: gap and spectrum printed nan with exit 0, and qfi
    # tagged the point ep_proximity, each with numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["gap", "--n", "3", "--j", "1e200", "--h", "0.1"]) == 2
        assert main(["spectrum", "--n", "2", "--j", "1e200"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("infs or NaNs") == 2
        assert main(["qfi", "--n", "3", "--j", "1e200", "--h", "0.1"]) == 0
    out, err = capsys.readouterr()
    _, _, [row] = parse_csv(out)
    assert row[4:] == ["nan", "domain"]
    assert err == ""


def test_ep_runner_two_site_boundary():
    spec = SweepSpec(
        subcommand="ep", n=2, tol_j=1e-4, axes=(SweepAxis("h", 0.0, 0.2, 3),)
    )
    table = run_ep(spec)
    assert table.header == ["N", "h", "J_c"]
    for n, h, j_c in table.rows:
        assert n == 2
        assert j_c == pytest.approx(np.sqrt(1 - 16 * h**2) / 2.0, abs=1e-4)


def test_ep_and_scaling_follow_gamma(tmp_path):
    # the J bracket is [0, 0.6 gamma], so a loss rate above 1.2 still
    # encloses every closure
    out = tmp_path / "ep.csv"
    argv = ["ep", "--n", "2", "--gamma", "2", "--h-range", "0:0.4:3"]
    assert main(argv + ["--out", str(out)]) == 0
    _, header, rows = parse_csv(out.read_text())
    assert header == ["N", "h", "J_c"] and len(rows) == 3
    for _, h, j_c in rows:
        expected = np.sqrt(4 - 16 * float(h) ** 2) / 2
        assert float(j_c) == pytest.approx(expected, abs=1e-4)
    assert main(["scaling", "--gamma", "2", "--out", str(tmp_path / "s.csv")]) == 0


def test_scaling_runner_reference_comment_and_fit():
    spec = SweepSpec(
        subcommand="scaling",
        h=0.0,
        tol_j=1e-3,
        axes=(SweepAxis("n", 2, 5, 4),),
    )
    table = run_scaling(spec)
    assert table.header == ["coeff_name", "value", "residual"]
    assert [r[0] for r in table.rows] == ["a", "b", "c"]
    assert any(c == "paper_fit a=0.842 b=0.031 c=0.249" for c in table.comments)
    assert any(c.startswith("points ") for c in table.comments)


def test_scaling_at_a_field_that_closes_the_gap_at_zero_coupling(tmp_path, capsys):
    # at h >= gamma / 4 every size is gapless already at J = 0: scaling takes
    # each J_c = 0 by ep's rule and fits zeros, where it exited 2
    out = tmp_path / "s.csv"
    assert main(["scaling", "--h", "0.3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    comments, header, rows = parse_csv(out.read_text())
    assert "points " + " ".join(f"N={n}:0" for n in range(2, 11)) in comments
    assert header == ["coeff_name", "value", "residual"]
    assert rows == [["a", "0", "0"], ["b", "0", "0"], ["c", "0", "0"]]


def test_correlations_runner_reference_value():
    spec = SweepSpec(
        subcommand="correlations", n=2, j=0.3, h=0.1, theta=np.pi / 4, axis="x"
    )
    table = run_correlations(spec)
    assert table.header == ["N", "J", "h", "theta", "axis", "n", "value"]
    assert len(table.rows) == 1
    assert table.rows[0][5] == 2
    assert table.rows[0][6] == pytest.approx(0.040192378864668415, abs=1e-9)


def test_correlations_runner_zero_field_two_site():
    spec = SweepSpec(subcommand="correlations", n=2, j=0.3, h=0.0, axis="y")
    table = run_correlations(spec)
    assert table.rows[0][6] == pytest.approx(0.0, abs=1e-10)


def test_evolve_runner_converges_to_steady_state():
    spec = SweepSpec(
        subcommand="evolve", n=4, j=0.23, h=0.2, t_range=(0.0, 120.0, 25)
    )
    table = run_evolve(spec)
    assert table.header == ["t", "norm", "fidelity_to_ss"]
    assert table.rows[0][0] == 0.0
    assert table.rows[0][1] == pytest.approx(1.0, abs=1e-12)
    norms = [r[1] for r in table.rows]
    assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))
    fids = [r[2] for r in table.rows]
    assert fids[-1] > 1 - 1e-6
    # nondecreasing after the initial transient
    tail = fids[len(fids) // 3:]
    assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))


def test_evolve_runner_columns_match_a_numpy_recomputation():
    # the runner takes norm and overlap from scipy's BLAS; numpy must agree
    spec = SweepSpec(subcommand="evolve", n=5, j=0.23, h=0.2, t_range=(0.0, 30.0, 7))
    table = run_evolve(spec)
    p = ChainParams(N=5, J=0.23, h=0.2)
    H = build_total(p)
    ss = solve_steady_state(p, H=H, tol=spec.tol, seed=spec.seed)
    rng = np.random.default_rng(spec.seed)
    psi = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
    psi /= np.linalg.norm(psi)
    t_prev = 0.0
    for t, norm, fid in table.rows:
        psi = evolve(H, psi, t - t_prev, tol=spec.tol)
        t_prev = t
        ref = np.linalg.norm(psi)
        assert norm == pytest.approx(ref, rel=1e-12, abs=0)
        assert fid == pytest.approx(abs(np.vdot(ss.vector, psi / ref)), rel=1e-12, abs=0)


def test_steady_initial_state_stays_put():
    # library-level check: starting exactly on the steady state keeps
    # fidelity 1 for all times
    from nhchain.hamiltonian import ChainParams, build_total
    from nhchain.spectral import evolve, solve_steady_state

    p = ChainParams(N=3, J=0.2, h=0.15)
    H = build_total(p)
    ss = solve_steady_state(p)
    psi = ss.vector.copy()
    for t in (1.0, 5.0, 9.0):
        psi_t = evolve(H, ss.vector, t, tol=1e-11)
        fid = abs(np.vdot(ss.vector, psi_t / np.linalg.norm(psi_t)))
        assert fid > 1 - 1e-9


def test_csv_float_round_trip():
    table = CsvTable(
        comments=["x"],
        header=["a", "b"],
        rows=[(np.pi, 1.0 / 3.0), (1e-17, -2.5e300)],
    )
    _, _, rows = parse_csv(table.to_string())
    for orig, got in zip(table.rows, rows):
        assert [float(g) for g in got] == list(orig)


def test_csv_nan_rendering():
    table = CsvTable(comments=[], header=["v"], rows=[(float("nan"),)])
    assert "nan" in table.to_string().split("\n")[1]


def test_provenance_comments_echo_spec():
    # gap reads no seed, so its settings line leaves the seed out; evolve
    # reads one and echoes it
    spec = SweepSpec(subcommand="gap", n=3, j=0.1, h=0.05, seed=11)
    comments, _, _ = parse_csv(run_gap_sweep(spec).to_string())
    joined = "\n".join(comments)
    assert "subcommand=gap" in joined
    assert "n=3 j=0.10000000000000001 gamma=1 h=0.050000000000000003" in comments
    assert "seed" not in joined
    assert any(c.startswith("nhchain ") for c in comments)
    evolve = cli._provenance(SweepSpec(subcommand="evolve", seed=11))
    assert "seed=11" in evolve[2].split()


def test_byte_identical_reruns():
    spec = SweepSpec(
        subcommand="qfi",
        n=2,
        h=0.1,
        target="h",
        axes=(SweepAxis("j", 0.05, 0.35, 3),),
    )
    assert run_qfi_sweep(spec).to_string() == run_qfi_sweep(spec).to_string()


def test_main_writes_csv_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = main(
        ["spectrum", "--n", "2", "--j", "0.3", "--h", "0.1", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    comments, header, rows = parse_csv(text)
    assert header == ["index", "re_lambda", "im_lambda"]
    assert len(rows) == 4


def test_main_stdout_roundtrip(capsys):
    code = main(["spectrum", "--n", "2", "--j", "0.0"])
    assert code == 0
    comments, header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["index", "re_lambda", "im_lambda"]


def test_main_byte_identical_runs(tmp_path):
    args = ["gap", "--n", "2", "--j-range", "0:0.4:3", "--h-range", "0:0.2:3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_usage_error_exit_code(capsys):
    assert main(["spectrum", "--n", "17"]) == 1
    # the refusal points to the path that does reach N = 17
    err = " ".join(capsys.readouterr().err.split())
    assert "use the gap subcommand (free-fermion gap, any N)" in err
    assert main(["nosuchcommand"]) == 1
    assert main(["gap", "--j-range", "bad"]) == 1


def test_main_spectrum_refuses_every_method(capsys):
    # full spectra are always dense, so there is no solver to choose
    for method in ("auto", "dense", "krylov"):
        assert main(["spectrum", "--n", "2", "--j", "0.3", "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --method" in captured.err
    assert main(["spectrum", "--n", "2", "--j", "0.3"]) == 0


def test_main_refuses_a_chain_beyond_physical_memory(monkeypatch, capsys):
    import time

    from nhchain import majorana

    start = time.perf_counter()
    code = main(["correlations", "--n", "40"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "physical memory" in capsys.readouterr().err

    # numpy's own MemoryError, as from the N x N matrix S at N = 100000, is
    # a usage error too, not a traceback
    def no_memory(p):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(majorana, "_secular", no_memory)
    assert main(["gap", "--n", "100000"]) == 1
    assert "Unable to allocate" in capsys.readouterr().err


def test_main_rejects_non_finite_parameters(capsys):
    assert main(["qfi", "--n", "2", "--j", "nan", "--h", "0.1"]) == 1
    assert main(["gap", "--n", "2", "--h", "inf"]) == 1
    assert main(["gap", "--n", "2", "--j-range", "0:inf:3"]) == 1
    assert "finite" in capsys.readouterr().err
    # tolerances must also be > 0
    assert main(["correlations", "--tol", "-1"]) == 1
    assert main(["ep", "--n", "2", "--h", "0.1", "--tol-j", "-1"]) == 1
    assert main(["scaling", "--tol-j", "inf"]) == 1
    err = capsys.readouterr().err
    assert err.count("> 0") == 2 and "finite" in err
    # an invalid chain or seed is a usage error, not a numerical failure
    assert main(["gap", "--n", "0"]) == 1
    assert main(["ep", "--n", "1"]) == 1
    assert main(["evolve", "--n", "3", "--seed", "-1"]) == 1
    assert main(["evolve", "--n", "6", "--seed", "-1"]) == 1
    assert main(["gap", "--gamma", "-1"]) == 1
    assert main(["correlations", "--n", "3", "--h", "-0.1"]) == 1
    err = capsys.readouterr().err
    assert "integer >= 2" in err and "integer >= 0" in err
    assert err.count("finite number >= 0") == 2
    # and so are sweep axes that start outside the chain's domain
    assert main(["qfi", "--n-range", "1:3:3", "--j", "0.2", "--h", "0.1"]) == 1
    assert main(["scaling", "--n-range", "1:9:9"]) == 1
    assert main(["gap", "--j-range=-0.1:0.2:3"]) == 1
    assert main(["gap", "--h-range=-0.1:0.2:3"]) == 1
    err = capsys.readouterr().err
    assert "axis n must start at >= 2" in err and "axis j must start" in err
    assert "axis h must start" in err


def test_main_numerical_failure_exit_code(capsys):
    # evolve refuses on the gap closure (no isolated steady state)
    code = main(["evolve", "--n", "2", "--j", "0.3", "--h", "0.2"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("t_range", ["50:0:3", "-5:0:2", "0:5:0", "0:5:-1", "0:5:1"])
def test_main_refuses_an_invalid_time_grid(t_range, monkeypatch, capsys):
    # a usage error raised before the generator is built; a one-point grid
    # would echo its stop but compute only its start
    def no_build(p):
        raise AssertionError("generator built for an invalid time grid")

    monkeypatch.setattr(cli, "build_total", no_build)
    assert main(["evolve", "--n", "2", "--j", "0.3", f"--t-range={t_range}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t-range" in captured.err


def test_one_point_time_grid_at_its_start_runs(capsys):
    assert main(["evolve", "--n", "2", "--j", "0.2", "--h", "0.1", "--t-range", "0:0:1"]) == 0
    out = capsys.readouterr().out
    assert "t_range=0:0:1" in out
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "t,norm,fidelity_to_ss"
    assert len(rows) == 2 and rows[1].startswith("0,1,")


def test_axis_validation():
    with pytest.raises(CliUsageError, match="unknown sweep axis"):
        SweepAxis("q", 0.0, 1.0, 5)
    with pytest.raises(CliUsageError, match="count"):
        SweepAxis("j", 0.0, 1.0, 0)
    with pytest.raises(CliUsageError, match="start"):
        SweepAxis("j", 1.0, 0.0, 5)
    with pytest.raises(CliUsageError, match="integer"):
        SweepAxis("n", 2, 5, 3).int_values()


def test_one_point_axis_refuses_a_stop_it_would_drop(capsys):
    # linspace(0, 0.4, 1) is [0]: the stop would be echoed but never computed
    assert main(["gap", "--n", "2", "--j-range", "0:0.4:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "one-point axis" in captured.err
    assert SweepAxis("j", 0.4, 0.4, 1).values().tolist() == [0.4]


@pytest.mark.parametrize(
    "argv,flag",
    [
        ("correlations --n-range 2:6:3", "--n-range"),
        ("evolve --j-range 0:0.3:4", "--j-range"),
        ("spectrum --delta 5", "--delta"),
        ("gap --max-iters 1", "--max-iters"),
        ("ep --j 0.2", "--j"),
        ("scaling --n 4", "--n"),
        ("gap --method analytic2", "--method"),
        ("spectrum --method dense", "--method"),
        ("ep --method dense", "--method"),
        ("scaling --method krylov", "--method"),
        ("qfi --method dense", "--method"),
        ("qfi --delta 2e-4", "--delta"),
        ("qfi --seed 3", "--seed"),
        ("correlations --method krylov", "--method"),
        ("correlations --max-iters 100", "--max-iters"),
        ("evolve --method dense", "--method"),
        ("gap --j-r 0:0.1:2", "--j-r"),  # abbreviation of --j-range
        # the spectrum, gap and boundary do not depend on theta
        ("spectrum --theta 0.7", "--theta"),
        ("gap --theta 0.7", "--theta"),
        ("ep --theta 0.7", "--theta"),
        ("scaling --theta 0.7", "--theta"),
        # nor does the QFI
        ("qfi --theta 0.7", "--theta"),
        ("qfi --theta-range 0:1:2", "--theta-range"),
    ],
)
def test_main_rejects_flags_the_subcommand_does_not_read(argv, flag, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv.split() + ["--out", str(out)]) == 1
    assert flag in capsys.readouterr().err.replace(":", " ").split()
    assert not out.exists()


def test_main_help_shows_spec_defaults(capsys):
    assert main(["evolve", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for shown in ("(default 2)", "(default 1e-09)", "(default 0.0:50.0:101)"):
        assert shown in text


# The comment block of one invocation per subcommand: the settings line
# echoes only the SweepSpec fields whose flags the subcommand reads.
GOLDEN_COMMENTS = [
    (
        "spectrum --n 3 --j 0.1 --h 0.05 --gamma 1.2",
        ["# n=3 j=0.10000000000000001 gamma=1.2 h=0.050000000000000003"],
    ),
    (
        "gap --n 2 --j-range 0:0.4:5 --h-range 0:0.2:3",
        [
            "# n=2 j=0 gamma=1 h=0",
            "# sweep j=0:0.40000000000000002:5 h=0:0.20000000000000001:3",
        ],
    ),
    (
        "qfi --n 2 --j 0.3 --h 0.1 --target theta --n-range 2:3:2",
        [
            "# n=2 j=0.29999999999999999 gamma=1 h=0.10000000000000001 "
            "target=theta",
            "# sweep n=2:3:2",
        ],
    ),
    (
        "ep --n 2 --h-range 0:0.2:3 --tol-j 1e-3",
        [
            "# n=2 gamma=1 h=0 tol_j=0.001",
            "# sweep h=0:0.20000000000000001:3",
        ],
    ),
    (
        "scaling --h 0.05 --tol-j 1e-3 --n-range 2:5:4",
        [
            "# gamma=1 h=0.050000000000000003 tol_j=0.001",
            "# sweep n=2:5:4",
            "# points N=2:0.49013671874999992 N=3:0.35009765625 "
            "N=4:0.30732421874999999 N=5:0.28740234375000001",
            "# paper_fit a=0.842 b=0.031 c=0.249",
        ],
    ),
    (
        "correlations --n 3 --j 0.2 --h 0.1 --axis x --tol 1e-10",
        [
            "# n=3 j=0.20000000000000001 gamma=1 h=0.10000000000000001 theta=0 "
            "axis=x tol=1e-10",
        ],
    ),
    (
        "evolve --n 2 --j 0.2 --h 0.1 --t-range 0:5:3 --seed 5 --tol 1e-8",
        [
            "# n=2 j=0.20000000000000001 gamma=1 h=0.10000000000000001 theta=0 "
            "tol=1e-08 seed=5 t_range=0:5:3",
        ],
    ),
]


@pytest.mark.parametrize(
    "argv,block", GOLDEN_COMMENTS, ids=[a.split()[0] for a, _ in GOLDEN_COMMENTS]
)
def test_main_comment_block_is_pinned(argv, block, tmp_path):
    out = tmp_path / "out.csv"
    assert main(argv.split() + ["--out", str(out)]) == 0
    comments = [ln for ln in out.read_text().split("\n") if ln.startswith("#")]
    head = [f"# nhchain {__version__}", f"# subcommand={argv.split()[0]}"]
    assert comments == head + block


def test_readme_cli_invocations_parse():
    # every documented invocation names only flags its subcommand accepts;
    # nothing is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [
        ln.split("#")[0]
        for block in blocks
        for ln in block.splitlines()
        if ln.startswith("nhchain ")
    ]
    parser = cli._build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README invocation does not parse: {line}")
    assert {shlex.split(ln)[1] for ln in lines} == set(cli.RUNNERS)


def test_main_takes_a_value_that_starts_with_a_minus(tmp_path, capsys):
    # argparse alone reads -1e-3 as a flag; no range flag takes a value
    # below zero since theta left the qfi axes
    base = ["correlations", "--n", "2", "--j", "0.2", "--h", "0.1", "--axis", "z"]
    spaced, glued = tmp_path / "spaced.csv", tmp_path / "glued.csv"
    assert main(base + ["--theta", "-1e-3", "--out", str(spaced)]) == 0
    assert main(base + ["--theta=-1e-3", "--out", str(glued)]) == 0
    assert capsys.readouterr().err == ""
    assert spaced.read_bytes() == glued.read_bytes()
    _, _, rows = parse_csv(spaced.read_text())
    assert rows and all(float(r[3]) == -1e-3 for r in rows)



def test_ep_below_the_spacing_of_doubles_returns(monkeypatch, capsys):
    # a bisection width below the spacing of the doubles near J_c is never
    # reached; the spy turns a bisection that does not stop into a failure
    from nhchain import critical

    real_gap_at, calls = critical.gap_at, []

    def spy(p):
        calls.append(p)
        assert len(calls) <= 200, "bisection did not stop"
        return real_gap_at(p)

    monkeypatch.setattr(critical, "gap_at", spy)
    assert main(["ep", "--n", "2", "--h", "0.1", "--tol-j", "1e-20"]) == 0
    j_c = float(capsys.readouterr().out.strip().splitlines()[-1].split(",")[-1])
    assert j_c == pytest.approx(np.sqrt(1.0 - 16.0 * 0.1**2) / 2.0, abs=1e-9)
