"""CLI subcommands, file formats, exit codes, reproducibility."""
import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoct import optim, pmp, smoothing, xgate
from qoct.cli import _angle, main
from qoct.dynamics import TARGET_TOL, ModelParams, rabi_protocol
from qoct.fileio import (
    fmt,
    read_pulse_csv,
    sampled_from_pulse,
    write_csv,
    write_json,
    write_pulse_csv,
)
from qoct.protocols import Sampled


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("QOCT_OUTDIR", str(tmp_path))
    return tmp_path


def write_rows(path, t, u):
    """A `t,u` pulse file with the given rows."""
    return write_csv(path, ["t", "u"], np.column_stack((t, u)))


def write_midpoints(path, proto, n):
    """A `t,u` pulse file of ``proto`` sampled at the midpoints of n equal cells."""
    t = np.linspace(0.0, proto.T, n, endpoint=False)
    return write_rows(path, t, proto.u(t + 0.5 * (proto.T / n)))


@pytest.fixture(scope="module")
def rabi_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("pulses") / "rabi.csv"
    write_midpoints(path, rabi_protocol(ModelParams(u_max=0.2)), 4000)
    return path


class TestFileIO:
    def test_fmt_twelve_digits(self):
        assert fmt(np.pi) == "3.14159265359"
        assert fmt(3) == "3"
        assert fmt(True) == "1"

    def test_pulse_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        t = np.arange(50) * 0.02
        u = 0.3 * np.sin(t)
        write_rows(path, t, u)
        t2, u2 = read_pulse_csv(path)
        np.testing.assert_allclose(t2, t, atol=1e-12)
        np.testing.assert_allclose(u2, u, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(0.01, 2.0),
           st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=200))
    def test_pulse_file_round_trip_keeps_twelve_digits(self, T, u_max, fracs):
        proto = Sampled(T, u_max, u_max * np.array(fracs))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_pulse_csv(Path(tmp) / "p.csv", proto)
            back = sampled_from_pulse(*read_pulse_csv(path), u_max)
        assert [fmt(v) for v in back.values] == [fmt(v) for v in proto.values]
        assert back.n_t == proto.n_t and back.u_max == proto.u_max
        assert abs(back.T - T) <= 1e-11 * T

    def test_reader_rejects_bad_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_pulse_csv(p)

    def test_reader_rejects_nonuniform(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("t,u\n0,0.1\n0.1,0.1\n0.35,0.1\n")
        with pytest.raises(ValueError):
            read_pulse_csv(p)

    def test_reader_rejects_nonzero_start(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("t,u\n0.5,0.1\n0.6,0.1\n")
        with pytest.raises(ValueError):
            read_pulse_csv(p)

    def test_reader_rejects_nonfinite(self, tmp_path):
        p = tmp_path / "x.csv"
        for body in ("0,0.1\n0.1,nan\n0.2,0.1\n", "0,0.1\n0.1,inf\n0.2,0.1\n",
                     "0,0.1\nnan,0.1\n0.2,0.1\n"):
            p.write_text("t,u\n" + body)
            with pytest.raises(ValueError, match="non-finite"):
                read_pulse_csv(p)

    # one- and three-column rows in one file have as many commas as rows and
    # split into an even number of cells, so only a per-row count refuses them;
    # a file of three-column rows parses to an (n, 3) array without an error;
    # comment rows and trailing comments are cells, not skipped lines; float
    # refuses a U+001F before a number, which str.strip and np.loadtxt drop
    @pytest.mark.parametrize("body", ["0,0.1\n0.1\n0.2,0.1\n", "0,0.1\n0.1,0.1,7\n0.2,0.1\n",
                                      "0,0.1\n0.1,abc\n0.2,0.1\n",
                                      "0,0.1\n0.1\n0.2,0.1,7\n0.3,0.1\n",
                                      "0,0.1,7\n0.1,0.1,7\n0.2,0.1,7\n",
                                      "0,0.1\n0.1,1_0\n0.2,0.1\n",
                                      "0,0.1\n0.1,\uff11\n0.2,0.1\n",
                                      "0,0.1\n#c\n0.1,0.2\n0.2,0.1\n",
                                      "0,0.1\n0.1,0.2 # c\n0.2,0.1\n",
                                      "0,0.1\n\x1f0.1,0.2\n0.2,0.1\n",
                                      "0,0.1\n\x1e0.1,0.2\n0.2,0.1\n",
                                      "0,0.1\n0.1,0.2\x1c\n0.2,0.1\n"],
                             ids=["one column", "three columns", "non-numeric",
                                  "one and three columns", "three columns everywhere",
                                  "underscore digit group", "non-ASCII digit",
                                  "comment row", "trailing comment", "unit separator padding",
                                  "record separator padding", "file separator padding"])
    def test_reader_rejects_malformed_row(self, tmp_path, body):
        p = tmp_path / "x.csv"
        p.write_text("t,u\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            read_pulse_csv(p)

    def test_reader_skips_blank_and_whitespace_lines(self, tmp_path):
        # empty, ASCII and Unicode whitespace lines are dropped anywhere, CRLF
        # ends are lines, and rows may start or end with spaces
        p = tmp_path / "x.csv"
        p.write_text("\n \t\nt,u\r\n0,0.1\n\xa0\n 0.1, 0.2 \n\u3000\n\x1f\n\x0c\x1e\u2028\n"
                     "0.2,0.3\n\n", encoding="utf-8", newline="")
        t, u = read_pulse_csv(p)
        np.testing.assert_array_equal(t, [0.0, 0.1, 0.2])
        np.testing.assert_array_equal(u, [0.1, 0.2, 0.3])

    # str.splitlines ends a line at each of these; a pulse file's rows end
    # only at LF or CRLF, so a row holding one is malformed, not two rows
    @pytest.mark.parametrize("sep", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_reader_splits_rows_only_at_line_feeds(self, tmp_path, sep):
        p = tmp_path / "x.csv"
        p.write_text(f"t,u\n0,0.1{sep}0.5,0.1\n1,0.1\n", encoding="utf-8", newline="")
        with pytest.raises(ValueError, match="malformed"):
            read_pulse_csv(p)

    def test_reader_peaks_below_the_audit_of_its_pulse(self, tmp_path):
        # qoct verify reads a pulse and audits it: reading must not set the
        # command's memory peak, so it holds no per-line list of the file
        n = 100_003
        T = np.pi / 0.19
        mids = (np.arange(n) + 0.5) * (T / n)
        path = write_rows(tmp_path / "rabi.csv", np.arange(n) * (T / n),
                          0.19 * np.cos(2.0 * (mids - T / 2.0)))
        params = ModelParams(u_max=0.2)

        def peak(f):
            tracemalloc.start()
            try:
                out = f()
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (t, u), read_peak = peak(lambda: read_pulse_csv(path))
        assert len(t) == n
        pulse = sampled_from_pulse(t, u, params.u_max)
        _, audit_peak = peak(lambda: pmp.audit(pulse, params, pmp.CostSpec("x")))
        assert read_peak < audit_peak, (read_peak, audit_peak)

    def test_json_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "r.json", {"lambda0": float("nan")})
        assert not (tmp_path / "r.json").exists()

    def test_amplitude_bound_enforced(self):
        t = np.arange(10) * 0.1
        with pytest.raises(ValueError):
            sampled_from_pulse(t, np.full(10, 0.5), u_max=0.2)

    def test_csv_linefeeds_and_separators(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "b"], [(1.5, 2.25)])
        raw = path.read_bytes()
        assert raw == b"a,b\n1.5,2.25\n"

    def test_float_block_text_is_fmt_of_each_value(self, tmp_path):
        rng = np.random.default_rng(3)
        special = [-0.0, 0.0, 5e-324, -2.2250738585072e-309, np.finfo(float).tiny, 1e300,
                   -1e300, 3.0, -42.0, 1e15, 123456789012.0, 2.0 ** 60, 1 / 3]
        values = np.concatenate([special, rng.normal(size=40) * 10.0 ** rng.integers(-20, 20, 40),
                                 np.round(rng.normal(size=7) * 1e4)])
        block = values[:len(values) // 3 * 3].reshape(-1, 3)
        path = write_csv(tmp_path / "b.csv", ["x", "y", "z"], block)
        lines = ["x,y,z"] + [",".join(fmt(v) for v in row) for row in block.tolist()]
        assert path.read_text() == "\n".join(lines) + "\n"
        # an empty block keeps the header line alone
        empty = write_csv(tmp_path / "e.csv", ["x", "y"], np.empty((0, 2)))
        assert empty.read_bytes() == b"x,y\n"

    @pytest.mark.parametrize("case", ["constant", "few runs", "all distinct", "signed zeros",
                                      "one row", "threshold", "past threshold"])
    def test_float_block_with_runs_is_one_format_per_cell(self, tmp_path, case):
        # columns of few runs are formatted once per run; the bytes are those
        # of one "%.12g" per cell
        n = 160
        t = np.linspace(0.0, 3.7, n)
        runs = {"constant": np.full(n, 0.3),
                "few runs": np.repeat([0.5, -0.5, 0.5, 1.0 / 3.0], n // 4),
                "all distinct": np.sin(t),
                "signed zeros": np.repeat([0.0, -0.0, 0.0, -0.0, 2.5], n // 5),
                "one row": None,
                "threshold": np.repeat(np.arange(10) * 0.1, 16),
                "past threshold": np.repeat(np.arange(11) * 0.1, 16)[:n]}[case]
        if runs is None:
            block = np.array([[0.1, -0.0, 7.0]])
        else:
            block = np.column_stack((t, runs, np.where(t < 1.0, -0.0, 0.0), np.cos(t)))
        path = write_csv(tmp_path / "r.csv", ["a"] * block.shape[1], block)
        lines = [",".join(["a"] * block.shape[1])]
        lines += [",".join(["%.12g" % v for v in row]) for row in block.tolist()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        if case == "signed zeros":
            assert {"0", "-0"} <= {line.split(",")[1] for line in lines[1:]}


class TestCli:
    def test_xgate_single_point(self, outdir, capsys):
        rc = main(["xgate", "--umax", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert abs(payload["omega_eff"] - 2.0435) / 2.0435 < 5e-3
        assert payload["n_switch"] == 4
        assert 0.75 <= payload["ratio"] <= 0.85
        out = outdir / "xgate"
        record = json.loads((out / "run_record.json").read_text())
        for name in record["outputs"]:
            assert (out / name).exists()
        result = json.loads((out / "gate_result.json").read_text())
        assert 0.0 <= result["residual"] <= 1e-20
        assert result["newton_steps"] >= 0

    def test_xgate_nonfinite_residual_exits_2_without_result(self, outdir, monkeypatch):
        search = xgate.min_gate_time

        def nan_residual(problem, with_report=True):
            return dataclasses.replace(search(problem, with_report), residual=float("nan"))

        monkeypatch.setattr(xgate, "min_gate_time", nan_residual)
        assert main(["xgate", "--umax", "0.5"]) == 2
        assert not (outdir / "xgate" / "gate_result.json").exists()

    def test_sweep_writes_one_row_per_amplitude(self, outdir, capsys):
        rc = main(["sweep", "--umax", "0.45:0.5:2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out.strip()) == {"points": 2}
        lines = (outdir / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "u_max,t_star,ratio,omega_eff,n_switch,status"
        assert all(ln.endswith(",ok") for ln in lines[1:])
        rows = np.array([[float(c) for c in ln.split(",")[:-1]] for ln in lines[1:]])
        assert rows.shape == (2, 5)
        np.testing.assert_allclose(rows[:, 0], [0.45, 0.5])
        assert np.all((rows[:, 2] >= 0.75) & (rows[:, 2] <= 0.85))

    def test_sweep_writes_failed_rows_and_exits_3(self, outdir, capsys):
        # Y has no square-wave root in [0.6, 1.2] T_Rabi from u_max = 1.2 up
        assert main(["sweep", "--gate", "y", "--umax", "1.0:1.4:3"]) == 3
        assert "2 of 3" in capsys.readouterr().err
        text = (outdir / "sweep" / "sweep.csv").read_text()
        assert "nan" not in text.lower()
        lines = text.splitlines()
        assert lines[0] == "u_max,t_star,ratio,omega_eff,n_switch,status"
        cells = [ln.split(",") for ln in lines[1:]]
        assert [c[0] for c in cells] == ["1", "1.2", "1.4"]
        assert [c[-1] for c in cells] == ["ok", "failed", "failed"]
        assert all(float(x) > 0 for x in cells[0][1:5])
        assert cells[1][1:5] == cells[2][1:5] == ["", "", "", ""]
        assert (outdir / "sweep" / "run_record.json").exists()

    @pytest.mark.parametrize("grid", ["0.45:0.5:0", "0.45:0.5:-2"])
    def test_sweep_empty_grid_exits_2(self, outdir, grid):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", f"--umax={grid}"])
        assert exc.value.code == 2
        assert not (outdir / "sweep").exists()

    def test_sweep_small_amplitudes_find_every_root(self, outdir, capsys):
        assert main(["sweep", "--umax", "0.015:0.025:3"]) == 0
        assert json.loads(capsys.readouterr().out.strip()) == {"points": 3}
        lines = (outdir / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("argv", [["xgate", "--umax", "0.5", "--sweep", "0.45:0.5:2"],
                                      ["sweep", "--umax", "0.45:0.5:2", "--jobs", "2"]])
    def test_xgate_sweep_flag_removed(self, outdir, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_state_prep_angles_with_pi_suffix(self, outdir, capsys):
        rc = main(["state-prep", "--theta-init", "0.7pi", "--phi-init", "0",
                   "--theta-target", "0.35pi", "--phi-target", "1pi",
                   "--umax", "0.8"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["structure"] == "BSB"

    @pytest.mark.parametrize("text, value", [("pi", np.pi), ("-pi", -np.pi), ("+pi", np.pi),
                                             ("-1pi", -np.pi), ("-0.5PI", -0.5 * np.pi),
                                             ("0.7pi", 0.7 * np.pi), ("-2.5", -2.5)])
    def test_angle_literals(self, text, value):
        assert _angle(text) == value

    def test_state_prep_phi_minus_pi_runs_like_pi(self, tmp_path):
        args = ["state-prep", "--theta-init=0.7pi", "--phi-init=0",
                "--theta-target=0.35pi", "--umax=0.8"]
        for phi in ("pi", "-pi", "-1pi"):
            assert main(args + [f"--phi-target={phi}", f"--out={tmp_path / phi}"]) == 0
        for name in ("search_result.json", "pulse.csv", "trajectory.csv"):
            ref = (tmp_path / "pi" / "state-prep" / name).read_bytes()
            for phi in ("-pi", "-1pi"):
                assert (tmp_path / phi / "state-prep" / name).read_bytes() == ref

    def test_state_prep_trajectory_runs_from_initial_to_target(self, outdir):
        rc = main(["state-prep", "--theta-init", "0.7pi", "--phi-init", "0",
                   "--theta-target", "0.35pi", "--phi-target", "1pi",
                   "--umax", "0.85"])
        assert rc == 0
        rows = (outdir / "state-prep" / "trajectory.csv").read_text().splitlines()[1:]
        path = np.array([[float(c) for c in r.split(",")] for r in rows])

        def bloch_vec(theta, phi):
            return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                             np.cos(theta)])

        first = bloch_vec(*path[0, 1:])
        last = bloch_vec(*path[-1, 1:])
        assert path[0, 0] == 0.0
        np.testing.assert_allclose(first, bloch_vec(0.7 * np.pi, 0.0), atol=1e-10)
        assert np.linalg.norm(last - bloch_vec(0.35 * np.pi, np.pi)) < 1e-4

    def test_verify_rabi_pulse_not_extremal(self, outdir, rabi_csv, capsys):
        rc = main(["verify", "--pulse", str(rabi_csv), "--umax", "0.2",
                   "--cost", "x"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["sign_fraction"] < 1.0

    def test_spectrum_constant_pulse_single_line(self, outdir, tmp_path, capsys):
        pulse = tmp_path / "const.csv"
        t = np.arange(64) * (3.0 / 64)
        write_rows(pulse, t, np.full(64, 0.5))
        rc = main(["spectrum", "--pulse", str(pulse), "--umax", "0.5"])
        assert rc == 0
        rows = (outdir / "spectrum" / "spectrum.csv").read_text().splitlines()[1:]
        amps = np.array([[float(c) for c in r.split(",")] for r in rows])
        assert amps[0, 3] > 2.9
        assert np.max(amps[1:, 3]) < 1e-10

    def test_malformed_pulse_exits_2(self, outdir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense\n")
        assert main(["verify", "--pulse", str(bad), "--umax", "0.2"]) == 2

    # "0.1_0" is 0.1 to Python's float, so only the parse refuses that row
    @pytest.mark.parametrize("row", ["0.1", "0.1,0.1,7", "0.1,abc", "0.1_0,0.1"],
                             ids=["one column", "three columns", "non-numeric",
                                  "underscore digit group"])
    def test_malformed_row_exits_2_without_report(self, outdir, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,u\n0,0.1\n{row}\n0.2,0.1\n")
        assert main(["verify", "--pulse", str(bad), "--umax", "0.2"]) == 2
        assert not (outdir / "verify" / "report.json").exists()

    def test_overamplitude_pulse_exits_2(self, outdir, tmp_path):
        p = tmp_path / "big.csv"
        t = np.arange(10) * 0.1
        write_rows(p, t, np.full(10, 0.9))
        assert main(["verify", "--pulse", str(p), "--umax", "0.2"]) == 2

    def test_nan_pulse_exits_2_without_report(self, outdir, tmp_path):
        p = tmp_path / "nan.csv"
        t = np.arange(10) * 0.1
        u = np.full(10, 0.1)
        u[5] = np.nan
        write_rows(p, t, u)
        assert main(["verify", "--pulse", str(p), "--umax", "0.2"]) == 2
        assert not (outdir / "verify" / "report.json").exists()

    def test_infinite_umax_verify_exits_2_without_report(self, outdir, rabi_csv):
        assert main(["verify", "--pulse", str(rabi_csv), "--umax", "inf"]) == 2
        assert not (outdir / "verify" / "report.json").exists()

    @pytest.mark.parametrize("cmd,umax,artifact", [("verify", "-0.2", "report.json"),
                                                   ("verify", "0", "report.json"),
                                                   ("spectrum", "-1", "spectrum.csv")])
    def test_nonpositive_umax_exits_2_naming_u_max(self, outdir, rabi_csv, capsys,
                                                   cmd, umax, artifact):
        # refused as a bound, not read as a pulse that exceeds it
        assert main([cmd, "--pulse", str(rabi_csv), f"--umax={umax}"]) == 2
        assert f"u_max must be finite and positive, got {float(umax)!r}" in capsys.readouterr().err
        assert not (outdir / cmd / artifact).exists()

    def test_nan_umax_xgate_exits_2_naming_u_max(self, outdir, capsys):
        assert main(["xgate", "--umax", "nan"]) == 2
        assert "u_max" in capsys.readouterr().err

    def test_report_near_optimum_clipped_switch(self, outdir):
        # at 0.999 T* the re-optimized BB-2 switch times touch 0 or T; the
        # report must audit the canonical protocol instead of refusing it
        rc = main(["state-prep", "--theta-init=2.1983153152904236", "--phi-init=0",
                   "--theta-target=1.0970878453687456",
                   "--phi-target=3.141592653589793", "--umax=0.349783"])
        assert rc == 0
        # the plateau's structure is BB-2: a last switch parked a sliver
        # before T* must not turn it into BB-3
        res = json.loads((outdir / "state-prep" / "search_result.json").read_text())
        assert res["structure"] == "BB-2"
        # the winner's residual is |G|^2 = cost + 1 of the written protocol
        assert 0 < res["solver_steps"] <= optim.ROOT_STEPS
        assert res["residual"] <= TARGET_TOL
        assert res["residual"] == pytest.approx(res["cost"] + 1.0, abs=1e-14)
        T = res["t_star"]
        durs = np.diff(np.concatenate([[0.0], res["switch_times"], [T]]))
        assert np.min(durs) >= 1e-3 * T

    def test_state_prep_bsb_only_runs_the_closed_form(self, tmp_path):
        # asked for BSB alone, the search has no lane structure to scan and
        # returns the closed-form BSB that the default search also picks
        args = ["state-prep", "--theta-init=0.7pi", "--phi-init=0", "--theta-target=0.35pi",
                "--phi-target=1pi", "--umax=0.85"]
        assert main(args + [f"--out={tmp_path / 'all'}"]) == 0
        assert main(args + ["--structures", "BSB", f"--out={tmp_path / 'bsb'}"]) == 0
        default, bsb = (json.loads((tmp_path / side / "state-prep" / "search_result.json")
                                   .read_text()) for side in ("all", "bsb"))
        assert bsb["structure"] == default["structure"] == "BSB"
        assert bsb["t_star"] == default["t_star"]
        assert bsb["switch_times"] == default["switch_times"]

    def test_unknown_structure_exits_2(self, outdir):
        rc = main(["state-prep", "--theta-init", "0.7pi", "--phi-init", "0",
                   "--theta-target", "0.35pi", "--phi-target", "1pi",
                   "--umax", "0.8", "--structures", "XYZ"])
        assert rc == 2

    def test_spectrum_reruns_byte_identical(self, outdir, tmp_path):
        pulse = tmp_path / "p.csv"
        t = np.arange(64) * (3.0 / 64)
        write_rows(pulse, t, 0.4 * np.sin(t))
        main(["spectrum", "--pulse", str(pulse), "--umax", "0.5"])
        first = (outdir / "spectrum" / "spectrum.csv").read_bytes()
        main(["spectrum", "--pulse", str(pulse), "--umax", "0.5"])
        second = (outdir / "spectrum" / "spectrum.csv").read_bytes()
        assert first == second

    def test_config_file_fills_defaults(self, outdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nmax": 4}))
        pulse = tmp_path / "p.csv"
        t = np.arange(32) * 0.05
        write_rows(pulse, t, np.full(32, 0.1))
        rc = main(["spectrum", "--pulse", str(pulse), "--config", str(cfg)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["n_lines"] == 5

    def test_explicit_flag_beats_config_file(self, outdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nmax": 4, "umax": 0.5}))
        pulse = tmp_path / "p.csv"
        write_rows(pulse, np.arange(32) * 0.05, np.full(32, 0.1))
        rc = main(["spectrum", "--pulse", str(pulse), "--nmax", "6",
                   "--config", str(cfg)])
        assert rc == 0
        record = json.loads((outdir / "spectrum" / "run_record.json").read_text())
        assert record["config"]["nmax"] == 6
        assert record["config"]["umax"] == 0.5

    @pytest.mark.parametrize("argv", [
        ["xgate", "--umax", "0.5"],
        ["sweep", "--umax", "0.45:0.5:2"],
        ["verify", "--pulse", "p.csv", "--umax", "0.2"],
        ["spectrum", "--pulse", "p.csv"],
        ["repro", "fig3b"],
        ["state-prep", "--theta-init", "0", "--phi-init", "0", "--theta-target", "1",
         "--phi-target", "0", "--umax", "0.5"],
        ["smooth", "--scheme", "third", "--umax", "0.2", "--t-over-trabi", "0.9"],
    ])
    def test_seed_rejected_where_nothing_reads_it(self, outdir, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == 2

    def test_no_seed_recorded(self, outdir, tmp_path):
        pulse = tmp_path / "p.csv"
        write_rows(pulse, np.arange(32) * 0.05, np.full(32, 0.1))
        assert main(["spectrum", "--pulse", str(pulse)]) == 0
        assert main(["smooth", "--scheme", "third", "--umax", "0.2",
                     "--t-over-trabi", "0.8"]) == 3
        for cmd in ("spectrum", "smooth"):
            record = json.loads((outdir / cmd / "run_record.json").read_text())
            assert "seed" not in record and "seed" not in record["config"]

    def test_state_prep_hit_before_first_coarse_step(self, outdir, capsys):
        # t_max = 0.2 < pi/4: the only coarse time hits, so the refinement
        # bracket must start at 0 rather than at 0.2 - pi/4
        rc = main(["state-prep", "--theta-init=0", "--phi-init=0", "--theta-target=0.003",
                   "--phi-target=0", "--umax=0.2", "--tmax=0.2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["found"] and 0.0 < payload["t_star"] <= 0.2

    @pytest.mark.parametrize("theta_target", ["1", "1.001"], ids=["equal", "within-tol"])
    def test_state_prep_already_solved_exits_2_without_artifacts(self, outdir, capsys,
                                                                theta_target):
        rc = main(["state-prep", "--theta-init", "1", "--phi-init", "0",
                   "--theta-target", theta_target, "--phi-target", "0", "--umax", "0.2"])
        assert rc == 2
        assert "already" in capsys.readouterr().err
        assert not (outdir / "state-prep").exists()

    def test_smooth_missed_gate_not_reported_converged(self, outdir, capsys):
        rc = main(["smooth", "--scheme", "third", "--umax", "0.2", "--t-over-trabi", "0.8"])
        run = json.loads((outdir / "smooth" / "smoothing_run.json").read_text())
        assert rc == 3
        assert run["cost_plus_1"] > 1e-6
        assert run["converged"] is False
        assert run["extras"]["solver_status"] == "stalled"

    def test_smooth_tanh_missed_gate_reports_solver_status(self, outdir):
        rc = main(["smooth", "--scheme", "tanh", "--umax", "0.2", "--t-over-trabi", "0.8"])
        run = json.loads((outdir / "smooth" / "smoothing_run.json").read_text())
        assert rc == 3
        assert run["converged"] is False
        assert run["extras"]["solver_status"] == "stalled"

    def test_smooth_third_reports_solver_status(self, outdir):
        rc = main(["smooth", "--scheme", "third", "--umax", "0.4"])
        run = json.loads((outdir / "smooth" / "smoothing_run.json").read_text())
        assert rc == 0 and run["converged"] is True
        assert 0.0 <= run["extras"]["residual"] <= 1e-20
        assert run["extras"]["solver_steps"] > 0
        assert run["extras"]["dT_dR"] > 0.0
        assert run["t_over_trabi"] == pytest.approx(0.853729372711, abs=1e-11)

    def test_smooth_nonfinite_solver_status_exits_2_without_run(self, outdir, monkeypatch):
        search = smoothing.min_third_harmonic_time

        def nan_slope(problem):
            T, run = search(problem)
            return T, dataclasses.replace(run, extras={**run.extras, "dT_dR": float("nan")})

        monkeypatch.setattr(smoothing, "min_third_harmonic_time", nan_slope)
        assert main(["smooth", "--scheme", "third", "--umax", "0.4"]) == 2
        assert not (outdir / "smooth" / "smoothing_run.json").exists()

    def test_smooth_tanh_fixed_time_runs_resonance_count(self, outdir):
        rc = main(["smooth", "--scheme", "tanh", "--umax", "0.4", "--t-over-trabi", "0.86"])
        run = json.loads((outdir / "smooth" / "smoothing_run.json").read_text())
        assert rc == 0
        assert run["extras"]["n_pairs"] == 2
        assert run["cost_plus_1"] <= 1e-6
        assert run["converged"] is True and run["extras"]["residual"] <= 1e-20
        assert run["extras"]["solver_status"] == "converged"

    def test_smooth_constrained_requires_time(self, outdir):
        rc = main(["smooth", "--scheme", "constrained", "--umax", "0.2"])
        assert rc == 2

    def test_verify_state_prep_cost(self, outdir, tmp_path, capsys):
        # a BSB pulse audited against its own state-prep problem
        from qoct.state_prep import StatePrepProblem, best_bsb, _bsb_protocol
        from qoct.dynamics import BlochPoint
        problem = StatePrepProblem(BlochPoint(0.7 * np.pi, 0.0),
                                   BlochPoint(0.35 * np.pi, np.pi),
                                   ModelParams(u_max=0.8))
        proto = _bsb_protocol(best_bsb(problem), problem.params)
        pulse = tmp_path / "bsb.csv"
        write_midpoints(pulse, proto, 3000)
        rc = main(["verify", "--pulse", str(pulse), "--umax", "0.8",
                   "--cost", "sp", "--theta-init", "0.7pi", "--phi-init", "0",
                   "--theta-target", "0.35pi", "--phi-target", "1pi"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["singular_residence"] > 0.1

    def test_smooth_nonfinite_weight_exits_2_without_artifacts(self, outdir):
        rc = main(["smooth", "--scheme", "constrained", "--umax", "0.2",
                   "--t-over-trabi", "0.9", "--initial", "rabi", "--nt", "100",
                   "--objective", "mixed:nan"])
        assert rc == 2
        assert not (outdir / "smooth").exists()

    @pytest.mark.parametrize("tmax", ["inf", "nan", "-1", "0"])
    def test_state_prep_bad_tmax_exits_2_without_artifacts(self, outdir, capsys, tmax):
        rc = main(["state-prep", "--theta-init", "0.7pi", "--phi-init", "0",
                   "--theta-target", "0.35pi", "--phi-target", "1pi", "--umax", "0.5",
                   f"--tmax={tmax}"])
        assert rc == 2
        assert "t_max" in capsys.readouterr().err
        assert not (outdir / "state-prep").exists()

    @pytest.mark.parametrize("scheme", ["tanh", "third", "constrained"])
    @pytest.mark.parametrize("frac", ["inf", "-inf", "nan", "-1", "0"])
    def test_smooth_bad_time_exits_2_without_artifacts(self, outdir, capsys, scheme, frac):
        rc = main(["smooth", "--scheme", scheme, "--umax", "0.2", f"--t-over-trabi={frac}",
                   "--initial", "rabi", "--nt", "100"])
        assert rc == 2
        assert "--t-over-trabi" in capsys.readouterr().err
        assert not (outdir / "smooth").exists()

    @pytest.mark.parametrize("nt", ["0", "2", "-1"])
    def test_smooth_constrained_too_few_cells_exits_2_without_artifacts(self, outdir, capsys,
                                                                        nt):
        rc = main(["smooth", "--scheme", "constrained", "--umax", "0.2",
                   "--t-over-trabi", "0.9", f"--nt={nt}"])
        assert rc == 2
        assert "n_t" in capsys.readouterr().err
        assert not (outdir / "smooth").exists()

    def test_spectrum_negative_nmax_exits_2_without_artifacts(self, outdir, tmp_path, capsys):
        pulse = tmp_path / "p.csv"
        write_rows(pulse, np.arange(32) * 0.05, np.full(32, 0.1))
        assert main(["spectrum", "--pulse", str(pulse), "--nmax", "-1"]) == 2
        assert "n_max" in capsys.readouterr().err
        assert not (outdir / "spectrum").exists()

    def test_verify_state_prep_without_angles_exits_2(self, outdir, rabi_csv):
        rc = main(["verify", "--pulse", str(rabi_csv), "--umax", "0.2",
                   "--cost", "sp"])
        assert rc == 2
