"""CLI subcommands, file formats, exit codes, reproducibility."""
import json

import numpy as np
import pytest

from qoct.cli import main
from qoct.dynamics import ModelParams, rabi_protocol
from qoct.fileio import (
    fmt,
    read_pulse_csv,
    sampled_from_pulse,
    write_csv,
    write_json,
    write_pulse_csv,
)


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("QOCT_OUTDIR", str(tmp_path))
    return tmp_path


@pytest.fixture(scope="module")
def rabi_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("pulses") / "rabi.csv"
    write_pulse_csv(path, rabi_protocol(ModelParams(u_max=0.2)), n_samples=4000)
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
        write_pulse_csv(path, t, u)
        t2, u2 = read_pulse_csv(path)
        np.testing.assert_allclose(t2, t, atol=1e-12)
        np.testing.assert_allclose(u2, u, atol=1e-12)

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

    def test_sweep_writes_one_row_per_amplitude(self, outdir, capsys):
        rc = main(["sweep", "--umax", "0.45:0.5:2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out.strip()) == {"points": 2}
        lines = (outdir / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "u_max,t_star,ratio,omega_eff,n_switch"
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (2, 5)
        np.testing.assert_allclose(rows[:, 0], [0.45, 0.5])
        assert np.all((rows[:, 2] >= 0.75) & (rows[:, 2] <= 0.85))

    def test_xgate_sweep_flag_removed(self, outdir):
        with pytest.raises(SystemExit) as exc:
            main(["xgate", "--umax", "0.5", "--sweep", "0.45:0.5:2"])
        assert exc.value.code == 2

    def test_state_prep_angles_with_pi_suffix(self, outdir, capsys):
        rc = main(["state-prep", "--theta-init", "0.7pi", "--phi-init", "0",
                   "--theta-target", "0.35pi", "--phi-target", "1pi",
                   "--umax", "0.8"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["structure"] == "BSB"

    def test_verify_rabi_pulse_not_extremal(self, outdir, rabi_csv, capsys):
        rc = main(["verify", "--pulse", str(rabi_csv), "--umax", "0.2",
                   "--cost", "x"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["sign_fraction"] < 1.0

    def test_spectrum_constant_pulse_single_line(self, outdir, tmp_path, capsys):
        pulse = tmp_path / "const.csv"
        t = np.arange(64) * (3.0 / 64)
        write_pulse_csv(pulse, t, np.full(64, 0.5))
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

    def test_overamplitude_pulse_exits_2(self, outdir, tmp_path):
        p = tmp_path / "big.csv"
        t = np.arange(10) * 0.1
        write_pulse_csv(p, t, np.full(10, 0.9))
        assert main(["verify", "--pulse", str(p), "--umax", "0.2"]) == 2

    def test_nan_pulse_exits_2_without_report(self, outdir, tmp_path):
        p = tmp_path / "nan.csv"
        t = np.arange(10) * 0.1
        u = np.full(10, 0.1)
        u[5] = np.nan
        write_pulse_csv(p, t, u)
        assert main(["verify", "--pulse", str(p), "--umax", "0.2"]) == 2
        assert not (outdir / "verify" / "report.json").exists()

    def test_infinite_umax_verify_exits_2_without_report(self, outdir, rabi_csv):
        assert main(["verify", "--pulse", str(rabi_csv), "--umax", "inf"]) == 2
        assert not (outdir / "verify" / "report.json").exists()

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

    def test_unknown_structure_exits_2(self, outdir):
        rc = main(["state-prep", "--theta-init", "0.7pi", "--phi-init", "0",
                   "--theta-target", "0.35pi", "--phi-target", "1pi",
                   "--umax", "0.8", "--structures", "XYZ"])
        assert rc == 2

    def test_spectrum_reruns_byte_identical(self, outdir, tmp_path):
        pulse = tmp_path / "p.csv"
        t = np.arange(64) * (3.0 / 64)
        write_pulse_csv(pulse, t, 0.4 * np.sin(t))
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
        write_pulse_csv(pulse, t, np.full(32, 0.1))
        rc = main(["spectrum", "--pulse", str(pulse), "--config", str(cfg)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["n_lines"] == 5

    def test_explicit_flag_beats_config_file(self, outdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nmax": 4, "umax": 0.5}))
        pulse = tmp_path / "p.csv"
        write_pulse_csv(pulse, np.arange(32) * 0.05, np.full(32, 0.1))
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
    ])
    def test_seed_rejected_where_nothing_reads_it(self, outdir, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == 2

    def test_seed_recorded_only_where_read(self, outdir, tmp_path):
        pulse = tmp_path / "p.csv"
        write_pulse_csv(pulse, np.arange(32) * 0.05, np.full(32, 0.1))
        assert main(["spectrum", "--pulse", str(pulse)]) == 0
        record = json.loads((outdir / "spectrum" / "run_record.json").read_text())
        assert "seed" not in record and "seed" not in record["config"]
        assert main(["smooth", "--scheme", "third", "--umax", "0.2",
                     "--t-over-trabi", "0.8", "--seed", "3"]) == 3
        record = json.loads((outdir / "smooth" / "run_record.json").read_text())
        assert record["seed"] == 3 and record["config"]["seed"] == 3

    def test_state_prep_hit_before_first_coarse_step(self, outdir, capsys):
        # t_max = 0.2 < pi/4: the only coarse time hits, so the bisection
        # bracket must start at 0 rather than at 0.2 - pi/4
        rc = main(["state-prep", "--theta-init=0", "--phi-init=0", "--theta-target=0.001",
                   "--phi-target=0", "--umax=0.2", "--tmax=0.2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["found"] and 0.0 < payload["t_star"] <= 0.2

    def test_smooth_missed_gate_not_reported_converged(self, outdir, capsys):
        rc = main(["smooth", "--scheme", "third", "--umax", "0.2", "--t-over-trabi", "0.8"])
        run = json.loads((outdir / "smooth" / "smoothing_run.json").read_text())
        assert rc == 3
        assert run["cost_plus_1"] > 1e-6
        assert run["converged"] is False

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
        write_pulse_csv(pulse, proto, n_samples=3000)
        rc = main(["verify", "--pulse", str(pulse), "--umax", "0.8",
                   "--cost", "sp", "--theta-init", "0.7pi", "--phi-init", "0",
                   "--theta-target", "0.35pi", "--phi-target", "1pi"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["singular_residence"] > 0.1

    def test_verify_state_prep_without_angles_exits_2(self, outdir, rabi_csv):
        rc = main(["verify", "--pulse", str(rabi_csv), "--umax", "0.2",
                   "--cost", "sp"])
        assert rc == 2
