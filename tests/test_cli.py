import errno
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mesonosc import cli


def run(args, tmp_path=None, out_name=None):
    argv = list(args)
    if out_name is not None:
        out = tmp_path / out_name
        argv = ["--out", str(out)] + argv
        rc = cli.main(argv)
        return rc, out
    return cli.main(argv), None


def test_rates_outputs_four_rows(tmp_path):
    rc, out = run(["rates"], tmp_path, "rates.csv")
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "species,lambda_csl_per_s,lambda_over_width"
    assert len(lines) == 5
    assert {ln.split(",")[0] for ln in lines[1:]} == {"K0", "B0", "Bs", "D0"}


def test_manifest_written_with_stable_keys(tmp_path):
    rc, out = run(["rates"], tmp_path, "rates.csv")
    manifest = json.loads((tmp_path / "rates.csv.manifest.json").read_text())
    assert list(manifest) == sorted(manifest)
    for key in ("command", "config_sha256", "duration_s", "parameters",
                "seed", "version"):
        assert key in manifest
    assert manifest["command"] == "rates"


def test_reruns_are_byte_identical(tmp_path):
    _, out1 = run(["--seed", "5", "single", "--species", "K0",
                   "--t-grid", "0:1e-9:50"], tmp_path, "a.csv")
    _, out2 = run(["--seed", "5", "single", "--species", "K0",
                   "--t-grid", "0:1e-9:50"], tmp_path, "b.csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_single_trace_and_initial_row(tmp_path):
    _, out = run(["single", "--species", "K0", "--t-grid", "0:1e-9:20",
                  "--no-decay"], tmp_path, "s.csv")
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    first = [float(x) for x in rows[0]]
    assert first[1:] == pytest.approx([1.0, 0.0, 1.0, 0.0, 1.0])
    for row in rows:
        vals = [float(x) for x in row]
        assert vals[1] + vals[2] == pytest.approx(vals[5], abs=1e-12)


def test_single_csv_formatting(tmp_path):
    _, out = run(["single", "--t-grid", "0:1e-9:5"], tmp_path, "f.csv")
    text = out.read_text()
    assert "\r" not in text
    # scientific notation with 12 digits after the point
    assert "e-" in text.splitlines()[1] or "e+" in text.splitlines()[1]
    cell = text.splitlines()[1].split(",")[0]
    mantissa = cell.split("e")[0]
    assert len(mantissa.split(".")[1]) == 12


def test_joint_epr_column(tmp_path):
    _, out = run(["joint", "--species", "K0", "--t-left", "1e-10:1e-10:1",
                  "--t-right", "1e-10:1e-10:1", "--proj-left", "P",
                  "--proj-right", "P"], tmp_path, "j.csv")
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[2]) < 1e-12


def test_mc_json_within_three_sigma(tmp_path):
    _, out = run(["mc", "--gamma-j", "4", "--gamma-k", "1", "--f0", "1",
                  "--t", "1", "--n-trajectories", "5000",
                  "--n-steps", "32"], tmp_path, "mc.json")
    doc = json.loads(out.read_text())
    assert abs(doc["mean_interference"] - doc["analytic_prediction"]) \
        < 3.0 * doc["std_error"]


def test_fit_round_trip_and_event_file(tmp_path):
    events = tmp_path / "events.csv"
    rc, out = run(["--seed", "13", "fit", "--zeta-true", "0.3",
                   "--n-events", "5000", "--save-events", str(events)],
                  tmp_path, "fit.json")
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["converged"]
    assert doc["ci_low"] <= 0.3 <= doc["ci_high"] or \
        abs(doc["zeta_hat"] - 0.3) < 0.1
    # refit from the saved file reproduces the estimate
    rc2, out2 = run(["fit", "--events", str(events)], tmp_path, "fit2.json")
    assert rc2 == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["zeta_hat"] == pytest.approx(doc["zeta_hat"], abs=1e-4)


def test_overlap_monotone(tmp_path):
    _, out = run(["overlap", "--t-grid", "0:1e-13:10"], tmp_path, "o.csv")
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    ratios = [float(r[2]) for r in rows]
    assert ratios[0] == pytest.approx(1.0)
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


# packet widths and correlation lengths: ordinary ones, and any magnitude
# from 1e-300 to 1e300 cm
LENGTHS = st.one_of(
    st.floats(1e-8, 1e2),
    st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
              st.floats(1.0, 9.99), st.integers(-300, 299)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(sigma=LENGTHS, r_c=LENGTHS,
       start=st.sampled_from([0.0, 1e-15]), stop=st.floats(0.0, 1e3),
       n=st.integers(1, 6))
# s2 = r_C^2 + sigma^2 overflows, or underflows to 0
@example(sigma=1e-5, r_c=1e200, start=0.0, stop=1e-12, n=5)
@example(sigma=1e300, r_c=1e-5, start=0.0, stop=1e-12, n=5)
@example(sigma=1e-170, r_c=1e-170, start=0.0, stop=1e-12, n=5)
# r_C/sigma underflows, so the overlap at d = 0 is 0.0
@example(sigma=1e299, r_c=1e-300, start=0.0, stop=1e-12, n=5)
def test_overlap_rows_are_finite_ratios_at_any_length(sigma, r_c, start,
                                                       stop, n):
    argv = ["overlap", "--sigma", repr(sigma), "--r-c", repr(r_c),
            "--t-grid", f"{start!r}:{stop!r}:{n}"]
    with tempfile.TemporaryDirectory() as tmp:
        texts = []
        for name in ("a.csv", "b.csv"):
            out = Path(tmp) / name
            assert cli.main(["--out", str(out), *argv]) == 0
            texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    rows = [[float(x) for x in line.split(",")]
            for line in texts[0].decode().splitlines()[1:]]
    assert len(rows) == n
    assert all(math.isfinite(x) for row in rows for x in row)
    assert all(0.0 <= ratio <= 1.0 for _, _, ratio in rows)
    assert all(ratio == 1.0 for t, _, ratio in rows if t == 0.0)


def test_diag_reports_discrepancies(tmp_path):
    _, out = run(["diag"], tmp_path, "d.json")
    doc = json.loads(out.read_text())
    assert "momentum_spread" in doc and "phase_magnitude" in doc
    assert doc["momentum_spread"]["h_over_rc_ev_per_c"] == pytest.approx(
        12.4, rel=0.01
    )


def test_exit_code_config_error(tmp_path):
    assert cli.main(["single", "--species", "T0"]) == 3
    assert cli.main(["rates", "--csl-preset", "nope"]) == 3
    assert cli.main(["single", "--model", "csl", "--kernel", "foo"]) == 3
    assert cli.main(["fit"]) == 3  # neither --events nor --zeta-true
    # config documents of the wrong shape are config errors too
    cfg = tmp_path / "cfg.json"
    for text in ("[]", '{"species": [{"name": "X", "m_light_mev": "abc", '
                       '"delta_m_mev": 1e-12, "tau_light_s": 1e-10, '
                       '"tau_heavy_s": 1e-8}]}'):
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg), "rates"]) == 3


def test_exit_code_usage_error():
    assert cli.main(["single", "--t-grid", "garbage"]) == 2


def test_exit_code_numeric_failure():
    assert cli.main(["mc", "--gamma-j", "-1", "--gamma-k", "1",
                     "--f0", "1", "--t", "1"]) == 4


def test_missing_config_file_is_config_error():
    assert cli.main(["--config", "/nonexistent/cfg.json", "rates"]) == 3


@pytest.mark.parametrize("argv", [
    ["--out", "{d}/missing/x.csv", "rates"],
    ["--out", "{d}/x.csv", "--config", "{d}", "rates"],
    ["--out", "{d}/x.json", "fit", "--events", "{d}"],
    ["--out", "{d}/x.json", "fit", "--zeta-true", "0.2", "--n-events", "100",
     "--save-events", "{d}"],
    ["--out", "{d}/missing/x.json", "fit", "--zeta-true", "0.2",
     "--n-events", "200", "--save-events", "{d}/ev.csv"],
])
def test_file_errors_are_config_errors_and_write_nothing(tmp_path, argv):
    # a missing output directory, or a directory where a file belongs
    assert cli.main([a.format(d=tmp_path) for a in argv]) == 3
    assert list(tmp_path.iterdir()) == []


def test_manifest_error_leaves_no_data_file(tmp_path):
    # the data file is written first; it goes again when its manifest
    # cannot be written, here because a directory holds the manifest's name
    (tmp_path / "x.csv.manifest.json").mkdir()
    assert cli.main(["--out", str(tmp_path / "x.csv"), "rates"]) == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "x.csv.manifest.json"]
    assert list((tmp_path / "x.csv.manifest.json").iterdir()) == []


def test_manifest_error_leaves_no_event_file(tmp_path):
    # the saved events go with the data file they belong to
    (tmp_path / "fit.json.manifest.json").mkdir()
    assert cli.main(["--out", str(tmp_path / "fit.json"), "fit",
                     "--zeta-true", "0.2", "--n-events", "200",
                     "--save-events", str(tmp_path / "ev.csv")]) == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "fit.json.manifest.json"]


def test_failed_fit_leaves_no_event_file(tmp_path):
    # 50 events hold too little information to fit: a usage error, and
    # the events are not saved either
    assert cli.main(["--out", str(tmp_path / "fit.json"), "fit",
                     "--zeta-true", "0.2", "--n-events", "50",
                     "--save-events", str(tmp_path / "ev.csv")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_fit_of_an_event_file_leaves_save_events_path_alone(tmp_path):
    # --save-events applies to generated events only: a fit that reads a
    # file neither writes that path nor, when an output fails, removes it
    events, other = tmp_path / "events.csv", tmp_path / "other.csv"
    run(["fit", "--zeta-true", "0.3", "--n-events", "500",
         "--save-events", str(events)], tmp_path, "saved.json")
    other.write_text("keep\n")
    argv = ["fit", "--events", str(events), "--save-events", str(other)]
    assert run(argv, tmp_path, "fit.json")[0] == 0
    assert other.read_text() == "keep\n"
    (tmp_path / "bad.json.manifest.json").mkdir()
    assert run(argv, tmp_path, "bad.json")[0] == 3
    assert other.read_text() == "keep\n"


def test_custom_config(tmp_path):
    import mesonosc as m
    cfg = tmp_path / "cfg.json"
    cfg.write_text(m.dump_config(m.default_registry()))
    rc, out = run(["--config", str(cfg), "rates"], tmp_path, "r.csv")
    assert rc == 0
    assert len(out.read_text().splitlines()) == 5


def test_non_finite_species_config_is_config_error(tmp_path):
    # json reads NaN; a NaN lifetime would make every probability NaN
    import mesonosc as m
    cfg = m.DEFAULT_CONFIG | {"species": [
        dict(sp, tau_light_s=math.nan) for sp in m.DEFAULT_CONFIG["species"]]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "single.csv"
    assert cli.main(["--config", str(tmp_path / "cfg.json"), "--out",
                     str(out), "single", "--t-grid", "0:1e-9:3"]) == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("argv", [
    ["single", "--t-grid", "0:nan:3"],
    ["single", "--t-grid", "0:inf:3"],
    ["single", "--t-grid", "nan:1e-9:1"],
    ["single", "--t-grid", "0:-1e-9:3"],
    ["joint", "--t-left", "0:nan:2"],
    ["overlap", "--t-grid", "0:inf:2"],
])
def test_non_finite_grid_is_usage_error_and_writes_nothing(tmp_path, argv):
    out = tmp_path / "bad.csv"
    assert cli.main(["--out", str(out)] + argv) == 2
    assert list(tmp_path.iterdir()) == []


def test_calls_in_one_process_match_fresh_processes(tmp_path):
    # the parser is built once per process; no call may leak state into
    # the next, so each output equals that of a fresh interpreter
    import mesonosc as m
    cfg = m.DEFAULT_CONFIG | {"species": [
        dict(sp, tau_light_s=2.0 * sp["tau_light_s"])
        for sp in m.DEFAULT_CONFIG["species"]]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argvs = [
        ["--config", str(tmp_path / "cfg.json"), "--seed", "7", "single",
         "--species", "B0", "--t-grid", "0:3e-12:7", "--model", "lindblad",
         "--lambda-single", "3e11", "--no-decay"],
        ["joint", "--species", "D0", "--t-left", "0:1e-12:4", "--t-right",
         "0:2e-12:3", "--proj-left", "A", "--model", "csl", "--kernel",
         "gauss:1e-12"],
        ["rates", "--csl-preset", "grw"],
        ["single", "--t-grid", "0:1e-9:5"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    fresh = []
    for i, argv in enumerate(argvs):
        full = ["--out", str(tmp_path / f"fresh{i}.csv")] + argv
        code = f"from mesonosc import cli; raise SystemExit(cli.main({full!r}))"
        fresh.append(subprocess.Popen(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src}))
    for i, argv in enumerate(argvs):
        assert cli.main(["--out", str(tmp_path / f"same{i}.csv")] + argv) == 0
    for i, proc in enumerate(fresh):
        assert proc.wait(timeout=120) == 0
        assert (tmp_path / f"same{i}.csv").read_bytes() == \
            (tmp_path / f"fresh{i}.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["diag", "--r-c", "nan"],
    ["diag", "--t", "inf"],
    ["overlap", "--sigma", "nan"],
    ["overlap", "--r-c", "inf"],
    ["overlap", "--speed", "nan"],
    # finite but outside the domain: no length scale, a negative time
    ["diag", "--r-c", "0"],
    ["diag", "--r-c", "-1"],
    ["diag", "--t", "-1"],
])
def test_non_finite_packet_flags_are_usage_errors(tmp_path, argv):
    out = tmp_path / "bad.out"
    assert cli.main(["--out", str(out)] + argv) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["single", "joint"])
@pytest.mark.parametrize("model", ["none", "lindblad", "csl"])
@pytest.mark.parametrize("momentum", ["-1", "nan"])
def test_bad_momentum_is_usage_error_under_every_model(tmp_path, command,
                                                       model, momentum):
    out = tmp_path / "bad.csv"
    assert cli.main(["--out", str(out), command, "--model", model,
                     "--momentum", momentum]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["single", "--t-grid", "0:1e300:3"],
    ["single", "--t-grid", "0:1e300:3", "--no-decay"],
    ["joint", "--t-left", "0:1e300:3", "--t-right", "0:1e300:3"],
    ["diag", "--r-c", "1e-320"],
    ["diag", "--t", "1e308"],
    ["single", "--momentum", "1e200"],
    ["single", "--model", "csl", "--relativistic", "--momentum", "1e200"],
    ["overlap", "--speed", "1e308", "--t-grid", "0:1e10:3"],
])
def test_overflowing_times_are_numeric_failure(tmp_path, argv):
    # valid input whose phase, energy splitting or diagnostic overflows: no
    # NaN rows, no Infinity in JSON, no RuntimeWarning
    import warnings
    out = tmp_path / "big.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--out", str(out)] + argv) == 4
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["single", "--species", "K0", "--t-grid", "0:2e298:3"],
    ["single", "--species", "D0", "--t-grid", "0:1e297:3"],
    ["joint", "--species", "K0", "--t-left", "0:2e298:3",
     "--t-right", "0:2e298:3"],
    ["single", "--model", "lindblad", "--lambda-single", "1e308",
     "--t-grid", "0:10:3"],
])
def test_overflowing_decay_alone_gives_zero_probabilities(tmp_path, argv):
    # the decay or damping exponent overflows but the phase does not:
    # exp(-inf) is 0
    import warnings
    out = tmp_path / "big.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--out", str(out)] + argv) == 0
    header, *rows = (line.split(",") for line in out.read_text().splitlines())
    values = [[float(cell) for cell in row] for row in rows]
    assert all(math.isfinite(v) for row in values for v in row)
    # at the largest times every probability has decayed to 0
    assert all(v == 0 for name, v in zip(header, values[-1])
               if not name.startswith("t_"))


def test_relativistic_csl_at_huge_momentum_gives_finite_rows(tmp_path):
    # E^3 overflows at this momentum but the mass splitting does not
    import warnings
    out = tmp_path / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--out", str(out), "single", "--model", "csl",
                         "--relativistic", "--momentum", "1e120",
                         "--t-grid", "0:1e-9:3"]) == 0
    _, *rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert all(math.isfinite(float(cell)) for row in rows
               for cell in row.split(","))


@pytest.mark.parametrize("kernel, grid", [("gauss:1e-300", "0:1e-9:3"),
                                          ("exp:1e-310", "0:1:3")])
def test_csl_at_vanishing_correlation_time_gives_finite_rows(tmp_path, kernel,
                                                              grid):
    # t/tau (or its square) overflows; the kernel's D(t) is then its exact
    # t >> tau limit
    import warnings
    out = tmp_path / "k.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--out", str(out), "single", "--t-grid", grid,
                         "--model", "csl", "--kernel", kernel]) == 0
    _, *rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert all(math.isfinite(float(cell)) for row in rows
               for cell in row.split(","))


def _csl_preset_config(tmp_path, preset, tau_light_b0=None):
    """A config whose one CSL preset, 'huge', is gamma 1e300 with the
    adler r_C and m0, then the preset's overrides; B0's light lifetime is
    tau_light_b0 when given."""
    import mesonosc as m
    species = [sp | {"tau_light_s": tau_light_b0}
               if tau_light_b0 and sp["name"] == "B0" else sp
               for sp in m.DEFAULT_CONFIG["species"]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(m.DEFAULT_CONFIG | {"species": species, "csl": [
        {"name": "huge", "gamma_cm3_per_s": 1e300, "r_c_cm": 1e-5,
         "m0_mev": 9.4e2} | preset]}))
    return cfg


@pytest.mark.parametrize("argv, preset, tau_light_b0, message", [
    # gamma F(0) overflows: no inf cells, no NaN rows at t = 0
    (["rates"], {"r_c_cm": 1e-100}, None, "damping rate"),
    (["single", "--model", "csl"], {"r_c_cm": 1e-100}, None, "damping rate"),
    (["joint", "--model", "csl"], {"r_c_cm": 1e-100}, None, "damping rate"),
    # a finite rate (about 1e288/s) over a width of about 7e-52 MeV
    (["rates"], {}, 1e30, "width"),
    # r_C**3 underflows to 0, so F(0) overflows
    (["rates"], {"r_c_cm": 1e-110}, None, "r_C"),
    (["single", "--model", "csl"], {"r_c_cm": 1e-110}, None, "r_C"),
    # (dm/m0)**2 overflows
    (["rates"], {"m0_mev": 1e-300}, None, "damping rate"),
    (["single", "--model", "csl"], {"m0_mev": 1e-300}, None, "damping rate"),
], ids=["rates", "single", "joint", "rates-ratio", "rates-r_c-tiny",
        "single-r_c-tiny", "rates-m0-tiny", "single-m0-tiny"])
def test_csl_preset_that_overflows_is_numeric_failure(
        tmp_path, capsys, argv, preset, tau_light_b0, message):
    # the preset 'huge' and every lifetime are finite and accepted
    cfg = _csl_preset_config(tmp_path, preset, tau_light_b0)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["--config", str(cfg), "--out", str(out / "x.csv"),
                     *argv, "--csl-preset", "huge"]) == 4
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and message in err, err


@pytest.mark.parametrize("argv", [["rates"], ["single", "--model", "csl"]],
                         ids=["rates", "single"])
def test_csl_preset_too_wide_has_rate_zero(tmp_path, argv):
    # r_C**3 overflows at 1e103 cm, but F(0) is about 2e-311 /cm^3, so the
    # adler gamma gives a rate of exactly 0: no damping at all
    cfg = _csl_preset_config(tmp_path, {"gamma_cm3_per_s": 1e-22,
                                        "r_c_cm": 1e103})
    out = tmp_path / "x.csv"
    assert cli.main(["--config", str(cfg), "--out", str(out), *argv,
                     "--csl-preset", "huge"]) == 0
    if argv == ["rates"]:
        _, *rows = out.read_text().splitlines()
        assert [row.split(",")[1:] for row in rows] == [
            ["0.000000000000e+00"] * 2] * len(rows)
    else:
        ref = tmp_path / "none.csv"
        assert cli.main(["--out", str(ref), "single"]) == 0
        assert out.read_text() == ref.read_text()


@pytest.mark.parametrize("bad", [
    ["--gamma-j", "nan"], ["--gamma-k", "inf"], ["--f0", "inf"],
    ["--f0", "nan"], ["--t", "nan"], ["--t", "inf"],
])
def test_mc_non_finite_is_numeric_failure(tmp_path, bad):
    flags = {"--gamma-j": "4", "--gamma-k": "1", "--f0": "1", "--t": "1"}
    flags[bad[0]] = bad[1]
    argv = ["mc", "--n-trajectories", "200", "--n-steps", "10"]
    argv += [x for kv in flags.items() for x in kv]
    assert cli.main(["--out", str(tmp_path / "mc.json")] + argv) == 4
    assert list(tmp_path.iterdir()) == []


def test_mc_is_byte_identical_across_reruns_and_chunk_sizes(tmp_path,
                                                            monkeypatch):
    from mesonosc import oracle
    argv = ["--seed", "9", "mc", "--gamma-j", "4", "--gamma-k", "1", "--f0",
            "1", "--t", "1", "--n-trajectories", "1300", "--n-steps", "20",
            "--kernel", "exp:0.5"]
    outs = []
    for i, workers in enumerate((1, 2, 3)):
        monkeypatch.setattr(oracle, "_WORKERS", workers)
        _, out = run(argv, tmp_path, f"mc{i}.json")
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("row", [
    "nan,1e-10,P,A", "1e-10,inf,P,A", "1e-10,1e-10,PX,A",
    "1e-10,1e-10,P,A,P", "1e-10,1e-10,P",
])
def test_fit_bad_event_row_is_usage_error_and_writes_nothing(tmp_path,
                                                             capsys, row):
    import mesonosc as m
    lines = m.events_to_csv(m.generate_events(
        m.default_registry().get_species("K0"), 0.3, 500, 2)).splitlines()
    lines.insert(250, row)
    events = tmp_path / "events.csv"
    events.write_text("\n".join(lines) + "\n")
    rc, out = run(["fit", "--events", str(events)], tmp_path, "fit.json")
    assert rc == 2
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [events]


def test_fit_skips_blank_event_lines(tmp_path):
    clean = tmp_path / "clean.csv"
    run(["--seed", "3", "fit", "--zeta-true", "0.3", "--n-events", "500",
         "--save-events", str(clean)], tmp_path, "saved.json")
    lines = clean.read_text().splitlines()
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n\n".join(lines[:100]) + "\n  \n"
                      + "\n".join(lines[100:]) + "\n\n")
    _, a = run(["fit", "--events", str(clean)], tmp_path, "a.json")
    _, b = run(["fit", "--events", str(spaced)], tmp_path, "b.json")
    assert json.loads(a.read_text())["n_events"] == 500
    assert a.read_bytes() == b.read_bytes()


MC_SMALL = ["mc", "--gamma-j", "4", "--gamma-k", "1", "--f0", "1", "--t", "1",
            "--n-trajectories", "300", "--n-steps", "10"]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_mc_seed_outside_64_bits_is_numeric_failure(tmp_path, seed):
    out = tmp_path / "mc.json"
    assert cli.main(["--out", str(out), "--seed", str(seed)] + MC_SMALL) == 4
    assert list(tmp_path.iterdir()) == []


def test_mc_runs_at_largest_seed(tmp_path):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no lossy cast into the Philox key
        rc, out = run(["--seed", str(2**64 - 1)] + MC_SMALL, tmp_path,
                      "mc.json")
    assert rc == 0
    assert abs(json.loads(out.read_text())["mean_interference"]) <= 1.0


FIT_SMALL = ["fit", "--zeta-true", "0.2", "--n-events", "500"]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_fit_seed_outside_64_bits_is_numeric_failure(tmp_path, seed):
    # the same seed domain, and the same exit code, as mc
    events = tmp_path / "events.csv"
    argv = ["--out", str(tmp_path / "fit.json"), "--seed", str(seed)]
    assert cli.main(argv + FIT_SMALL + ["--save-events", str(events)]) == 4
    assert list(tmp_path.iterdir()) == []


def test_fit_runs_at_largest_seed(tmp_path):
    rc, out = run(["--seed", str(2**64 - 1)] + FIT_SMALL, tmp_path, "fit.json")
    assert rc == 0
    assert json.loads(out.read_text())["n_events"] == 500


def test_fit_event_whose_phase_overflows_is_numeric_failure(tmp_path):
    import mesonosc as m
    lines = m.events_to_csv(m.generate_events(
        m.default_registry().get_species("K0"), 0.3, 500, 2)).splitlines()
    lines.insert(250, "1e300,1e-10,P,A")
    events = tmp_path / "events.csv"
    events.write_text("\n".join(lines) + "\n")
    rc, _ = run(["fit", "--events", str(events)], tmp_path, "fit.json")
    assert rc == 4
    assert list(tmp_path.iterdir()) == [events]


def test_fit_event_whose_envelopes_underflow_gives_finite_json(tmp_path):
    # at t = 1e-7 s (a plausible K_L decay time) both decay envelopes of
    # the pair underflow; the likelihood must stay finite
    import warnings
    import mesonosc as m
    lines = m.events_to_csv(m.generate_events(
        m.default_registry().get_species("K0"), 0.3, 300, 2)).splitlines()
    lines.insert(150, "1e-7,1e-7,P,P")
    events = tmp_path / "events.csv"
    events.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run(["fit", "--events", str(events)], tmp_path, "fit.json")
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["n_events"] == 301
    assert all(math.isfinite(v) for v in result.values())


def test_fit_that_does_not_converge_is_numeric_failure(tmp_path, monkeypatch):
    from mesonosc import inference
    monkeypatch.setattr(inference, "_MAX_STEPS", 1)
    rc, _ = run(["--seed", "4"] + FIT_SMALL, tmp_path, "fit.json")
    assert rc == 4
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["generate_events", "simulate_damping"])
def test_memory_error_is_numeric_failure(tmp_path, monkeypatch, target):
    def unable_to_allocate(*args):
        raise MemoryError("Unable to allocate 218. TiB")

    monkeypatch.setattr(cli, target, unable_to_allocate)
    argv = MC_SMALL if target == "simulate_damping" else \
        FIT_SMALL + ["--save-events", str(tmp_path / "events.csv")]
    assert cli.main(["--out", str(tmp_path / "out")] + argv) == 4
    assert list(tmp_path.iterdir()) == []


def test_fit_too_large_to_allocate_is_numeric_failure(tmp_path):
    # 10^13 events need 218 TiB; the child's address space is capped at
    # 3 GiB, since an uncapped oversized array can be granted lazily and
    # then exhaust the machine's memory
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    argv = ["--out", str(tmp_path / "fit.json"), "fit", "--zeta-true", "0.1",
            "--n-events", "10000000000000",
            "--save-events", str(tmp_path / "events.csv")]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "mesonosc.cli", *argv],
                          preexec_fn=cap_address_space, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("numeric failure: ")
    assert list(tmp_path.iterdir()) == []


def cap_file_size():
    """In a child process: a write past 100 kB fails with EFBIG."""
    import resource
    import signal
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))


@pytest.mark.parametrize("out", [["--out", "fit.json"], []],
                         ids=["out", "stdout"])
def test_event_file_past_file_size_limit_leaves_no_file(tmp_path, out):
    # the event file (about 900 kB) is cut off at the child's 100 kB limit;
    # what was written of it goes, with the rest of the run's files
    argv = out + ["fit", "--zeta-true", "0.2", "--n-events", "20000",
                  "--save-events", "ev.csv"]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "mesonosc.cli", *argv],
                          cwd=tmp_path, preexec_fn=cap_file_size,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3, proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["rates"],
    ["fit", "--zeta-true", "0.2", "--n-events", "500", "--save-events",
     "ev.csv"],
], ids=["rates", "fit"])
def test_failed_stdout_flush_exits_3(tmp_path, argv):
    # stdout is a file already at the child's 100 kB limit, and the text
    # fits in its buffer, so the failure shows at the flush; the text left
    # in the buffer must not fail again at interpreter exit (exit 120)
    stdout = tmp_path / "stdout.txt"
    stdout.write_bytes(b"x" * 100_000)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with stdout.open("ab") as fh:
        proc = subprocess.run([sys.executable, "-m", "mesonosc.cli", *argv],
                              cwd=tmp_path, preexec_fn=cap_file_size,
                              stdout=fh, stderr=subprocess.PIPE, text=True,
                              timeout=120, env=env | {"PYTHONPATH": src})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("config or file error: ")
    assert list(tmp_path.iterdir()) == [stdout]


@pytest.mark.parametrize("argv, code", [
    (["--config", "missing.json", "rates"], 3),
    (["rates", "--bogus"], 2),
    (["single", "--t-grid", "0:1:0"], 2),
    (["--seed", "-1", "fit", "--zeta-true", "0.2"], 4),
], ids=["config", "argparse", "usage", "numeric"])
def test_exit_code_stands_when_stderr_fails(tmp_path, argv, code):
    # stderr is a file already at the child's 100 kB limit, so the error
    # message (main's or argparse's) cannot be written; the text left in
    # the buffer must not fail again at interpreter exit (exit 120)
    stderr = tmp_path / "stderr.txt"
    stderr.write_bytes(b"x" * 100_000)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with stderr.open("ab") as fh:
        proc = subprocess.run([sys.executable, "-m", "mesonosc.cli", *argv],
                              cwd=tmp_path, preexec_fn=cap_file_size,
                              stdout=subprocess.PIPE, stderr=fh, timeout=120,
                              env=env | {"PYTHONPATH": src})
    assert proc.returncode == code
    assert proc.stdout == b""
    assert list(tmp_path.iterdir()) == [stderr]
    assert stderr.stat().st_size == 100_000

@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]],
                         ids=["help", "fit-help"])
def test_help_exits_0_when_stdout_fails(tmp_path, argv):
    # stdout is a file already at the child's 100 kB limit; argparse drops
    # the failed write of its help, and the text left in the buffer must not
    # fail again at interpreter exit (exit 120)
    stdout = tmp_path / "stdout.txt"
    stdout.write_bytes(b"x" * 100_000)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with stdout.open("ab") as fh:
        proc = subprocess.run([sys.executable, "-m", "mesonosc.cli", *argv],
                              cwd=tmp_path, preexec_fn=cap_file_size,
                              stdout=fh, stderr=subprocess.PIPE, text=True,
                              timeout=120, env=env | {"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert list(tmp_path.iterdir()) == [stdout]
    assert stdout.stat().st_size == 100_000


def close_stdout():
    """In a child process: run with file descriptor 1 closed (`>&-`)."""
    os.close(1)


@pytest.mark.parametrize("argv", [
    ["rates"],
    ["fit", "--zeta-true", "0.2", "--n-events", "300", "--save-events",
     "ev.csv"],
], ids=["rates", "fit"])
def test_closed_stdout_exits_3(tmp_path, argv):
    # Python starts with sys.stdout None; the data cannot be written, so the
    # run is a file error and the event file it wrote is removed
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "mesonosc.cli", *argv],
                          cwd=tmp_path, preexec_fn=close_stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("config or file error: ")
    assert list(tmp_path.iterdir()) == []


class _StdoutPastSizeLimit:
    """A buffered stdout whose text cannot reach its file."""

    def write(self, text):
        return len(text)

    def flush(self):
        raise OSError(errno.EFBIG, "File too large")


def test_failed_stdout_leaves_no_event_file(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _StdoutPastSizeLimit())
    argv = FIT_SMALL + ["--save-events", str(tmp_path / "ev.csv")]
    assert cli.main(argv) == 3
    assert list(tmp_path.iterdir()) == []


def test_fit_never_imports_scipy_optimize(tmp_path):
    # the solver is a few lines of Newton steps; scipy.optimize would add
    # about 0.24 s and 24 MB to every fit process
    events, out = tmp_path / "events.csv", tmp_path / "fit.json"
    code = (
        "import sys; from mesonosc import cli\n"
        f"assert cli.main(['--seed', '3', '--out', {str(out)!r}, 'fit', "
        f"'--zeta-true', '0.2', '--n-events', '2000', "
        f"'--save-events', {str(events)!r}]) == 0\n"
        f"assert cli.main(['--out', {str(out)!r}, 'fit', "
        f"'--events', {str(events)!r}]) == 0\n"
        "raise SystemExit('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert json.loads(out.read_text())["converged"]


# numpy 2.x names of the dispatch targets that hold its AVX-512 kernels;
# cosh and other transcendentals may differ from the baseline kernels in
# their last bits
NO_AVX512 = "AVX512_ICL AVX512_SPR X86_V4"


def _cpu_dispatch() -> set:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return set()
    return set(getattr(umath, "__cpu_dispatch__", ()))


def _dispatch_runs(d) -> list:
    """fit --save-events for every species, two single, one joint and one
    mc, with their outputs under directory d."""
    runs = [["--seed", "13", "--out", f"{d}/fit_{sp}.json", "fit",
             "--species", sp, "--zeta-true", "0.3", "--n-events", "5000",
             "--save-events", f"{d}/events_{sp}.csv"]
            for sp in ("K0", "B0", "Bs", "D0")]
    runs.append(["--out", f"{d}/single.csv", "single", "--model", "csl",
                 "--kernel", "gauss:1e-10"])
    runs.append(["--out", f"{d}/single_rel.csv", "single", "--model", "csl",
                 "--relativistic", "--momentum", "700",
                 "--kernel", "gauss:1e-10"])
    runs.append(["--out", f"{d}/joint.csv", "joint", "--species", "Bs",
                 "--t-left", "0:2e-12:15", "--t-right", "0:2e-12:15"])
    runs.append(["--seed", "9", "--out", f"{d}/mc.json", "mc", "--gamma-j",
                 "4", "--gamma-k", "1", "--f0", "1", "--t", "1",
                 "--n-trajectories", "2000", "--n-steps", "20",
                 "--kernel", "exp:0.5"])
    return runs


@pytest.mark.skipif(not set(NO_AVX512.split()) <= _cpu_dispatch(),
                    reason="numpy build without these dispatch targets")
def test_outputs_match_with_avx512_kernels_off(tmp_path):
    # event files and CSVs are byte-equal across numpy's CPU dispatch
    # paths; the fit JSON agrees to 1e-12 relative
    default, baseline = tmp_path / "default", tmp_path / "baseline"
    default.mkdir()
    baseline.mkdir()
    for argv in _dispatch_runs(default):
        assert cli.main(argv) == 0
    code = ("from mesonosc import cli\n"
            f"for argv in {_dispatch_runs(baseline)!r}:\n"
            "    assert cli.main(argv) == 0\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], timeout=120,
        env={**os.environ, "PYTHONPATH": src,
             "NPY_DISABLE_CPU_FEATURES": NO_AVX512})
    assert proc.returncode == 0
    outputs = sorted(p.name for p in default.iterdir()
                     if not p.name.endswith(".manifest.json"))
    assert len(outputs) == 12
    for name in outputs:
        ours, theirs = (d.joinpath(name).read_bytes() for d in (default, baseline))
        if name.endswith(".csv"):
            assert ours == theirs, name
            continue
        ours, theirs = json.loads(ours), json.loads(theirs)
        assert ours.keys() == theirs.keys()
        for key, value in ours.items():
            assert math.isclose(value, theirs[key], rel_tol=1e-12), (name, key)
