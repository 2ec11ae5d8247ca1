"""Command-line workflows: file outputs, manifests, exit codes, determinism."""

import hashlib
import json

import numpy as np
import pytest

from tmnet import basis, cli, io, lattice, maps, network, ode, systems

# frozen from the closed-form free-fall step map (see test_ode.py)
FF_W = (0.9798745270139799, 0.9996159383645234, -0.00039179927792022825)


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def test_derive_free_fall_matches_closed_form(tmp_path):
    out = tmp_path / "ff.json"
    code = run("derive", "--system", "free_fall", "--param", "m=100",
               "--param", "g=9.8", "--param", "k=0.392",
               "--dt", "0.1", "--out", out)
    assert code == 0
    tm = io.load_map(out)
    assert tm.dim == 1 and tm.order == 2
    got = (tm.weights[0][0, 0], tm.weights[1][0, 0], tm.weights[2][0, 0])
    for g, w in zip(got, FF_W):
        assert g == pytest.approx(w, rel=1e-12)
    manifest = io.read_manifest(tmp_path / "ff.manifest.json")
    assert manifest.command == "derive"
    assert manifest.parameters["dt"] == 0.1
    assert manifest.tool_version


def test_derive_zero_rhs_gives_identity(tmp_path):
    zeros = ode.PolynomialODE(
        2, 2, tuple(np.zeros((2, basis.basis_size(2, d))) for d in range(3))
    )
    spec = tmp_path / "zero.json"
    io.save_ode(zeros, spec)
    out = tmp_path / "map.json"
    assert run("derive", "--ode", spec, "--dt", "0.5", "--out", out) == 0
    tm = io.load_map(out)
    ident = maps.identity_map(2, 2)
    for w, wi in zip(tm.weights, ident.weights):
        assert np.allclose(w, wi, atol=1e-15)


def test_simulate_identity_map_constant_rows(tmp_path):
    path = tmp_path / "ident.json"
    io.save_map(maps.identity_map(2, 2), path)
    out = tmp_path / "traj.csv"
    assert run("simulate", "--map", path, "--x0", "0.3,-0.4",
               "--steps", "5", "--out", out) == 0
    states = io.read_trajectory(out)
    assert states.shape == (6, 2)
    assert np.allclose(states, [0.3, -0.4])


def test_simulate_oracle_column_matches_analytic(tmp_path):
    out = tmp_path / "traj.csv"
    assert run("simulate", "--system", "free_fall", "--dt", "0.1",
               "--x0", "0", "--steps", "150", "--oracle", "--out", out) == 0
    data = io.read_trajectory(out)
    t = 0.1 * np.arange(151)
    analytic = systems.free_fall_analytic(t)
    assert np.max(np.abs(data[:, 1] - analytic)) < 1e-9  # RK4 reference column
    # order-2 map: truncation settles ~1% below terminal speed
    assert np.max(np.abs(data[:20, 0] - analytic[:20])) < 0.005
    assert np.max(np.abs(data[:, 0] - analytic)) < 0.5


def test_simulate_oracle_on_an_ode_from_json_keeps_the_in_memory_bytes(tmp_path):
    # the generated oracle reads the coefficients back from their JSON text;
    # the reference columns are those of the ODE that was saved
    rng = np.random.default_rng(11)
    system = ode.PolynomialODE(3, 2, tuple(
        rng.normal(scale=0.5, size=(3, basis.basis_size(3, d))) for d in range(3)))
    spec, out = tmp_path / "rand.json", tmp_path / "traj.csv"
    io.save_ode(system, spec)
    assert run("simulate", "--ode", spec, "--dt", "0.05", "--x0", "0.1,-0.2,0.05",
               "--steps", "10", "--substeps", "50", "--oracle", "--out", out) == 0
    ref = ode.reference_trajectory(system, np.array([0.1, -0.2, 0.05]), 0.05, 10,
                                   cli.ORACLE_SUBSTEPS)
    assert io.read_trajectory(out)[:, 3:].tobytes() == ref.tobytes()


def test_simulate_dimension_mismatch_fails(tmp_path):
    path = tmp_path / "ident.json"
    io.save_map(maps.identity_map(2, 2), path)
    out = tmp_path / "traj.csv"
    assert run("simulate", "--map", path, "--x0", "1", "--steps", "3",
               "--out", out) == 1
    assert not out.exists()


def test_train_zero_epochs_round_trips_weights(tmp_path):
    tm = ode.ode_to_map(systems.pendulum(), ode.FlowConfig(0.1))
    map_path = tmp_path / "init.json"
    io.save_map(tm, map_path)
    obs = systems.synthesize(systems.pendulum(), [0.1, 0.0], 0.1, 5)
    obs_path = tmp_path / "obs.csv"
    io.write_observations(obs, obs_path)
    out = tmp_path / "tuned.json"
    assert run("train", "--map", map_path, "--obs", obs_path, "--x0", "0.1,0",
               "--epochs", "0", "--out", out) == 0
    back = io.load_map(out)
    for w0, w1 in zip(tm.weights, back.weights):
        assert np.array_equal(w0, w1)
    history = io.read_loss_history(tmp_path / "tuned.loss.csv")
    assert history["total"].size == 0


def test_train_improves_loss_and_is_deterministic(tmp_path):
    ideal = ode.ode_to_map(systems.pendulum(L=0.3), ode.FlowConfig(0.1))
    map_path = tmp_path / "init.json"
    io.save_map(ideal, map_path)
    obs = systems.synthesize(systems.pendulum(L=0.28), [0.09, 0.0], 0.1, 10)
    obs_path = tmp_path / "obs.csv"
    io.write_observations(obs, obs_path)

    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"tuned_{name}.json"
        assert run("train", "--map", map_path, "--obs", obs_path,
                   "--x0", "0.09,0", "--epochs", "40", "--lr", "1e-3",
                   "--lambda", "1e-8", "--seed", "11", "--out", out) == 0
        history = io.read_loss_history(tmp_path / f"tuned_{name}.loss.csv")
        assert history["total"][-1] < history["total"][0]
        outputs.append(
            (out.read_bytes(), (tmp_path / f"tuned_{name}.loss.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]
    stable_a = io.manifest_stable_view(tmp_path / "tuned_a.manifest.json")
    stable_b = io.manifest_stable_view(tmp_path / "tuned_b.manifest.json")
    stable_a["parameters"]["out"] = stable_b["parameters"]["out"] = ""
    assert stable_a == stable_b


def test_track_and_tunes_workflow(tmp_path):
    lat = lattice.Lattice(
        elements=[lattice.rotation_element("r1", 0.28, 0.19)],
        monitors=(1,),
    )
    lat_path = tmp_path / "ring.json"
    io.save_lattice(lat, lat_path)
    series_path = tmp_path / "turns.csv"
    assert run("track", "--lattice", lat_path, "--x0", "1e-3,0,1e-3,0",
               "--turns", "512", "--out", series_path) == 0
    series = io.read_turn_series(series_path)
    assert series.n_turns == 512
    tunes_path = tmp_path / "tunes.json"
    assert run("tunes", "--series", series_path, "--out", tunes_path) == 0
    report = json.loads(tunes_path.read_text())
    assert report["qx"] == pytest.approx(0.28, abs=1e-3)
    assert report["qy"] == pytest.approx(0.19, abs=1e-3)
    assert not report["degenerate_x"] and not report["degenerate_y"]


def test_one_process_reuses_the_parser_without_carrying_arguments(tmp_path, capsys):
    lat_path, series_path, tunes_path = (tmp_path / n for n in
                                         ("ring.json", "turns.csv", "tunes.json"))
    io.save_lattice(lattice.Lattice(elements=[lattice.rotation_element("r1", 0.28, 0.19)],
                                    monitors=(1,)), lat_path)
    cli.build_parser()
    built = cli.build_parser.cache_info().misses
    capsys.readouterr()
    assert run("track", "--lattice", lat_path, "--x0", "9,9,9,9", "--turns", "7",
               "--out", tmp_path / "bad.csv", "--bogus") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "unrecognized arguments: --bogus" in err
    assert run("track", "--lattice", lat_path, "--x0", "1e-3,0,1e-3,0",
               "--turns", "300", "--out", series_path) == 0
    assert run("tunes", "--series", series_path, "--out", tunes_path) == 0
    assert cli.build_parser.cache_info().misses == built
    track = io.read_manifest(tmp_path / "turns.manifest.json").parameters
    assert track == {"lattice": str(lat_path), "x0": "1e-3,0,1e-3,0", "turns": 300,
                     "out": str(series_path)}
    tunes = io.read_manifest(tmp_path / "tunes.manifest.json").parameters
    assert tunes == {"series": str(series_path), "out": str(tunes_path)}
    assert io.read_turn_series(series_path).n_turns == 300
    assert not (tmp_path / "bad.csv").exists()


def test_manifest_inputs_are_the_digests_of_the_files_read(tmp_path):
    # each run's manifest maps exactly the files it read to their sha256 as
    # they were before the run, also when --out overwrites an input
    lv, derived, traj, obs_csv, tuned, ring, turns, report = (tmp_path / name for name in (
        "lv.json", "lv_map.json", "traj.csv", "obs.csv", "tuned.json", "ring.json",
        "turns.csv", "report.json"))
    io.save_ode(systems.lotka_volterra(), lv)
    io.write_observations(systems.synthesize(systems.lotka_volterra(), [0.5, 0.2], 0.1, 4),
                          obs_csv)
    io.save_lattice(lattice.Lattice(elements=[lattice.rotation_element("r1", 0.28, 0.19)],
                                    monitors=(1,)), ring)
    fit = ("--obs", obs_csv, "--x0", "0.5,0.2", "--epochs", "2")
    runs = [
        (("derive", "--ode", lv, "--dt", "0.1", "--substeps", "10", "--out", derived), [lv]),
        (("simulate", "--map", derived, "--ode", lv, "--dt", "0.1", "--x0", "0.5,0.2",
          "--steps", "3", "--oracle", "--out", traj), [derived, lv]),
        (("train", "--map", derived, *fit, "--out", tuned), [derived, obs_csv]),
        (("track", "--lattice", ring, "--x0", "1e-3,0,1e-3,0", "--turns", "64",
          "--out", turns), [ring]),
        (("tunes", "--series", turns, "--out", report), [turns]),
        (("check", "--map", tuned, "--out", report), [tuned]),
        (("train", "--map", tuned, *fit, "--out", tuned), [tuned, obs_csv]),
    ]
    for argv, read in runs:
        want = {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in read}
        assert run(*argv) == 0, argv
        out = argv[-1]
        assert io.read_manifest(out.with_name(out.stem + ".manifest.json")).inputs == want, argv


def test_tunes_constant_series_degenerate(tmp_path):
    series_path = tmp_path / "turns.csv"
    io.write_turn_series(
        lattice.TurnSeries(states=np.tile([0.5, 0.0, -0.25, 0.0], (70, 1))),
        series_path,
    )
    tunes_path = tmp_path / "tunes.json"
    assert run("tunes", "--series", series_path, "--out", tunes_path) == 0
    report = json.loads(tunes_path.read_text())
    assert report["qx"] == 0.0 and report["degenerate_x"]
    assert report["qy"] == 0.0 and report["degenerate_y"]


def test_check_reports(tmp_path):
    ident_path = tmp_path / "ident.json"
    io.save_map(maps.identity_map(4, 2), ident_path)
    out = tmp_path / "report.json"
    assert run("check", "--map", ident_path, "--out", out) == 0
    assert json.loads(out.read_text())["penalty"] == 0.0

    rot_path = tmp_path / "rot.json"
    io.save_map(lattice.rotation_element("r", 0.13, 0.29).tm, rot_path)
    assert run("check", "--map", rot_path, "--out", out) == 0
    assert json.loads(out.read_text())["penalty"] <= 1e-12

    scaled = maps.identity_map(2, 2)
    ws = [w.copy() for w in scaled.weights]
    ws[1] = 2.0 * ws[1]
    io.save_map(maps.TaylorMap(dim=2, order=2, weights=tuple(ws)), rot_path)
    assert run("check", "--map", rot_path, "--out", out) == 0
    assert json.loads(out.read_text())["penalty"] > 0.0


def test_error_exits(tmp_path, capsys):
    out = tmp_path / "x.json"
    map_json = tmp_path / "map.json"
    io.save_map(maps.identity_map(4, 2), map_json)
    map2_json = tmp_path / "map2.json"
    io.save_map(maps.identity_map(2, 3), map2_json)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    lattice_json = tmp_path / "lattice.json"
    io.save_lattice(lattice.Lattice(elements=[lattice.rotation_element("r", 0.28, 0.19)],
                                    monitors=(1,)), lattice_json)
    io.save_ode(systems.lotka_volterra(), tmp_path / "lv.json")
    obs_csv = tmp_path / "obs.csv"
    io.write_observations(network.ObservationSeries(
        taps=(1, 2), values=np.full((2, 2), 0.1), mask=np.ones((2, 2), bool)), obs_csv)

    def edited(name, base, **fields):
        # a copy of the JSON object base with some entries replaced
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, **fields}))
        return path

    quad = io.lattice_to_dict(lattice.Lattice(
        elements=[lattice.quad_element("q", 0.3, 0.5, substeps=10)], monitors=(1,)))
    element = quad["elements"][0]
    track = ("track", "--x0", "0,0,0,0", "--turns", "5", "--out", out, "--lattice")
    cases = [
        ((*track, edited("map3", quad, elements=[{**element, "map": 3}])),
         "TaylorMap must be a JSON object with a 'weights' list, got int"),
        ((*track, edited("gen5", quad, elements=[{**element, "generator": 5}])),
         "PolynomialODE must be a JSON object with a 'coeffs' list, got int"),
        ((*track, edited("elements", quad, elements=["x"])),
         "lattice element 0 must be a JSON object, got 'x'"),
        ((*track, edited("monitors", quad, monitors=1)), "lattice monitors must be a list"),
        ((*track, edited("dt", quad, elements=[{**element, "dt": "x"}])),
         "dt must be a finite number, got 'x'"),
        (("check", "--map", edited("dim", json.loads(map_json.read_text()), dim=None),
          "--out", out), "dim must be an integer >= 1, got None"),
        (("derive", "--system", "nope", "--dt", "0.1", "--out", out), "unknown system"),
        (("derive", "--system", "free_fall", "--param", "m", "--dt", "0.1",
          "--out", out), "--param needs k=v"),
        (("derive", "--system", "pendulum", "--param", "L=abc", "--dt", "0.1",
          "--out", out), "--param L must be a number, got 'abc'"),
        (("derive", "--dt", "0.1", "--out", out), "need --system"),
        # conflicting model sources are rejected, not silently ignored
        (("derive", "--system", "pendulum", "--ode", tmp_path / "lv.json", "--dt", "0.1",
          "--out", out), "argument --ode: not allowed with argument --system"),
        (("simulate", "--ode", tmp_path / "lv.json", "--param", "g=1", "--dt", "0.1",
          "--x0", "0.1,0", "--steps", "3", "--out", out), "--param needs --system"),
        (("simulate", "--map", map2_json, "--param", "g=1", "--x0", "0.1,0", "--steps", "3",
          "--out", out), "--param needs --system"),
        # a generating ODE does nothing without --oracle
        (("simulate", "--map", map2_json, "--system", "pendulum", "--param", "g=3",
          "--x0", "0.3,-0.4", "--steps", "5", "--out", out),
         "--map takes --system, --ode and --param only with --oracle"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--map", map2_json, "--dim", "2",
          "--order", "3", "--out", out), "--map and --dim/--order both set the initial map"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--map", map2_json, "--order", "3",
          "--out", out), "--map and --dim/--order both set the initial map"),
        (("track", "--lattice", tmp_path / "missing.json", "--x0", "0,0,0,0",
          "--turns", "5", "--out", out), "missing.json"),
        (("derive", "--system", "pendulum", "--param", "bogus=1", "--dt", "0.1",
          "--out", out), "unknown parameter 'bogus' for system 'pendulum' (known: g, L)"),
        (("simulate", "--system", "pendulum", "--dt", "0.1", "--x0", "nan,0",
          "--steps", "5", "--out", out), "--x0 must be finite"),
        # a non-finite oracle step is a bad input, not a divergence
        (("simulate", "--map", map2_json, "--system", "pendulum", "--dt", "nan",
          "--x0", "0.1,0", "--steps", "3", "--oracle", "--out", out), "dt must be finite"),
        (("simulate", "--map", map2_json, "--system", "pendulum", "--dt", "inf",
          "--x0", "0.1,0", "--steps", "3", "--oracle", "--out", out), "dt must be finite"),
        (("track", "--lattice", map_json, "--x0", "0,0,0,0", "--turns", "5",
          "--out", out), "not a lattice file"),
        (("derive", "--ode", map_json, "--dt", "0.1", "--out", out), "not an ODE file"),
        (("simulate", "--map", lattice_json, "--x0", "0,0,0,0", "--steps", "5",
          "--out", out), "not a map file"),
        (("tunes", "--series", map_json, "--out", out),
         "expected header starting with 'turn'"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--dim", "2", "--order", "0",
          "--out", out), "order must be an integer >= 1, got 0"),
        (("simulate", "--map", map2_json, "--x0", "0.1,0", "--steps", "0", "--out", out),
         "--steps must be an integer >= 1, got 0"),
        (("simulate", "--map", map2_json, "--x0", "0.1,0", "--steps", "-1", "--out", out),
         "--steps must be an integer >= 1, got -1"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--map", map2_json, "--layers", "0",
          "--out", out), "--layers must be an integer >= 1, got 0"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--map", map2_json, "--epochs", "-1",
          "--out", out), "--epochs must be an integer >= 0, got -1"),
        (("track", "--lattice", lattice_json, "--x0", "0,0,0,0", "--turns", "0",
          "--out", out), "--turns must be an integer >= 1, got 0"),
        (("derive", "--system", "pendulum", "--dt", "0.1", "--substeps", "0", "--out", out),
         "--substeps must be an integer >= 1, got 0"),
        (("simulate", "--system", "pendulum", "--dt", "0.1", "--x0", "0.1,0", "--steps", "5",
          "--substeps", "0", "--out", out), "--substeps must be an integer >= 1, got 0"),
        (("train", "--obs", empty, "--x0", "0,0", "--dim", "2", "--order", "1",
          "--out", out), "expected header starting with 'tap'"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--dim", "2", "--order", "2",
          "--lambda", "nan", "--out", out), "penalty_rate must be finite"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--dim", "2", "--order", "2",
          "--lr", "nan", "--out", out), "step_size must be finite"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--dim", "2", "--order", "2",
          "--clip", "nan", "--out", out), "clip_norm must be finite"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--dim", "2", "--order", "2",
          "--lr", "inf", "--out", out), "step_size must be finite"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--dim", "2", "--order", "2",
          "--train-degrees", "1,x", "--out", out), "--train-degrees must be"),
        # argparse's own parse errors, at the top level and in subcommands
        (("derive", "--system", "free_fall", "--dt", "0.1", "--out", out, "--bogus"),
         "unrecognized arguments: --bogus"),
        (("derive", "--system", "free_fall", "--dt", "0.1"),
         "tmnet derive: the following arguments are required: --out"),
        (("train", "--obs", obs_csv, "--x0", "0.1,0", "--dim", "2", "--order", "2",
          "--lambda", "-inf", "--out", out), "argument --lambda: expected one argument"),
        (("derive", "--system", "free_fall", "--dt", "fast", "--out", out),
         "argument --dt: invalid float value: 'fast'"),
        (("nope",), "argument command: invalid choice: 'nope'"),
    ]
    for argv, message in cases:
        capsys.readouterr()
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        # one line, no traceback, naming the actual fault
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err, err
    for argv in (("--help",), ("train", "--help")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0


def test_divergent_simulation_exits_nonzero(tmp_path):
    ws = [np.zeros((1, 1)) for _ in range(3)]
    ws[1][0, 0] = 1.0
    ws[2][0, 0] = 4.0
    path = tmp_path / "blow.json"
    io.save_map(maps.TaylorMap(dim=1, order=2, weights=tuple(ws)), path)
    out = tmp_path / "traj.csv"
    assert run("simulate", "--map", path, "--x0", "3",
               "--steps", "60", "--out", out) == 1


def test_simulate_oracle_manifest_records_its_own_substeps(tmp_path):
    # --substeps sets the derivation; the oracle columns run ORACLE_SUBSTEPS
    out = tmp_path / "s.csv"
    assert run("simulate", "--system", "pendulum", "--dt", "0.1", "--x0", "0.1,0",
               "--steps", "3", "--substeps", "5", "--oracle", "--out", out) == 0
    parameters = io.read_manifest(tmp_path / "s.manifest.json").parameters
    assert parameters["substeps"] == 5
    assert parameters["oracle_substeps"] == cli.ORACLE_SUBSTEPS == 100
    ref = ode.reference_trajectory(systems.pendulum(), np.array([0.1, 0.0]), 0.1, 3,
                                   cli.ORACLE_SUBSTEPS)
    assert np.array_equal(io.read_trajectory(out)[:, 2:], ref)
    derived = tmp_path / "d.csv"
    assert run("simulate", "--system", "pendulum", "--dt", "0.1", "--x0", "0.1,0",
               "--steps", "3", "--out", derived) == 0
    assert "oracle_substeps" not in io.read_manifest(
        tmp_path / "d.manifest.json").parameters


@pytest.mark.parametrize("flag, value, message", [
    ("--substeps", "7", "error: --map takes no --substeps: they set the derivation "
                        "from --system/--ode\n"),
    ("--dt", "0.5", "error: --map takes --dt only with --oracle\n"),
    ("--system", "pendulum",
     "error: --map takes --system, --ode and --param only with --oracle\n"),
])
def test_simulate_from_a_map_refuses_a_flag_it_would_not_use(tmp_path, capsys, flag, value,
                                                             message):
    # each was accepted and recorded in the manifest as if it shaped the run
    path, out = tmp_path / "ident.json", tmp_path / "t.csv"
    io.save_map(maps.identity_map(2, 2), path)
    capsys.readouterr()
    assert run("simulate", "--map", path, "--x0", "0.3,-0.4", "--steps", "5",
               flag, value, "--out", out) == 1
    assert capsys.readouterr().err == message
    assert not out.exists() and not (tmp_path / "t.manifest.json").exists()


def test_simulate_records_the_derivation_substeps_it_used(tmp_path):
    # --substeps has no parser default; deriving applies 1000 and records it,
    # a map that is not derived records none
    derived, loaded, path = tmp_path / "d.csv", tmp_path / "m.csv", tmp_path / "ff.json"
    assert run("simulate", "--system", "free_fall", "--dt", "0.1", "--x0", "0",
               "--steps", "3", "--out", derived) == 0
    assert io.read_manifest(tmp_path / "d.manifest.json").parameters["substeps"] == 1000
    io.save_map(ode.ode_to_map(systems.free_fall(), ode.FlowConfig(0.1)), path)
    assert run("simulate", "--map", path, "--x0", "0", "--steps", "3", "--out", loaded) == 0
    assert io.read_trajectory(loaded).tobytes() == io.read_trajectory(derived).tobytes()
    parameters = io.read_manifest(tmp_path / "m.manifest.json").parameters
    assert parameters["substeps"] is None and parameters["dt"] is None
