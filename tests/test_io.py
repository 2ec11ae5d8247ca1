"""File-format round trips: every value written must read back bit-exact."""

import json

import numpy as np
import pytest

from tmnet import basis, io, lattice, maps, network, ode


def random_map(rng, n, k, scale=1.0):
    ws = [scale * rng.standard_normal((n, basis.basis_size(n, d))) for d in range(k + 1)]
    return maps.TaylorMap(dim=n, order=k, weights=tuple(ws))


def maps_equal(a: maps.TaylorMap, b: maps.TaylorMap) -> bool:
    return (
        a.dim == b.dim
        and a.order == b.order
        and all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))
    )


def test_map_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    for n, k in [(1, 3), (2, 2), (4, 2)]:
        tm = random_map(rng, n, k)
        path = tmp_path / f"map_{n}_{k}.json"
        io.save_map(tm, path)
        assert maps_equal(io.load_map(path), tm)


def test_map_round_trip_awkward_floats(tmp_path):
    ws = (
        np.array([[0.1 + 0.2], [1.0 / 3.0]]),
        np.array([[1e-300, -0.0], [np.pi, 5e-324]]),
    )
    tm = maps.TaylorMap(dim=2, order=1, weights=ws)
    path = tmp_path / "map.json"
    io.save_map(tm, path)
    back = io.load_map(path)
    for wa, wb in zip(tm.weights, back.weights):
        assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize("save, load, obj", [
    (io.save_map, io.load_map, maps.identity_map(2, 2)),
    (io.save_ode, io.load_ode, ode.PolynomialODE(2, 1, (np.zeros((2, 1)), np.eye(2)))),
], ids=["map", "ode"])
def test_map_load_rejects_foreign_ordering(tmp_path, save, load, obj):
    path = tmp_path / "poly.json"
    save(obj, path)
    data = json.loads(path.read_text())
    data["basis_ordering"] = "colex"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="unsupported basis ordering 'colex'"):
        load(path)


def test_ode_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    coeffs = tuple(rng.standard_normal((3, basis.basis_size(3, d))) for d in range(3))
    system = ode.PolynomialODE(3, 2, coeffs)
    path = tmp_path / "ode.json"
    io.save_ode(system, path)
    back = io.load_ode(path)
    assert back.dim == 3 and back.order == 2
    assert all(np.array_equal(a, b) for a, b in zip(back.coeffs, system.coeffs))


def test_lattice_round_trip(tmp_path):
    elements = [
        lattice.rotation_element("r1", 0.1, 0.2),
        lattice.quad_element("q1", 0.3, 0.5, substeps=50),
    ]
    lat = lattice.Lattice(elements=elements, monitors=(1, 2), ring=True)
    path = tmp_path / "lattice.json"
    io.save_lattice(lat, path)
    back = io.load_lattice(path)
    assert back.monitors == (1, 2) and back.ring
    assert [e.label for e in back.elements] == ["r1", "q1"]
    assert all(maps_equal(a.tm, b.tm) for a, b in zip(back.elements, lat.elements))
    assert back.elements[0].generator is None
    gen = back.elements[1].generator
    assert gen is not None and back.elements[1].dt == 0.5
    assert all(np.array_equal(a, b) for a, b in
               zip(gen.coeffs, elements[1].generator.coeffs))
    # generator survives well enough to rebuild a perturbed element
    pert = lattice.perturb_element(back, 1, 0.8)
    assert pert.elements[1].generator.coeffs[1][1, 0] == pytest.approx(-0.24)


def test_observations_round_trip_with_mask(tmp_path):
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    mask = np.array([[True, False], [True, True], [False, True]])
    obs = network.ObservationSeries(taps=(1, 3, 4), values=values, mask=mask)
    path = tmp_path / "obs.csv"
    io.write_observations(obs, path)
    text = path.read_text().splitlines()
    assert text[0] == "tap,x1,x2"
    assert text[1].endswith(",")  # unobserved second component is empty
    back = io.read_observations(path)
    assert back.taps == (1, 3, 4)
    assert np.array_equal(back.mask, mask)
    assert np.array_equal(back.values[mask], values[mask])
    assert np.all(np.isnan(back.values[~mask]))


def test_observations_round_trip_fully_observed(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((5, 3))
    obs = network.ObservationSeries(
        taps=(1, 2, 3, 4, 5), values=values, mask=np.ones((5, 3), dtype=bool)
    )
    path = tmp_path / "obs.csv"
    io.write_observations(obs, path)
    back = io.read_observations(path)
    assert back.values.tobytes() == values.tobytes()


def test_observations_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,x1\n0,1.0\n")
    with pytest.raises(ValueError, match="tap"):
        io.read_observations(path)
    path.write_text("tap,x1\n1,1.0\n\n2,1.0,3.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 4: 3 fields for a header of 2$"):
        io.read_observations(path)
    # an unobserved entry is an empty field, never a missing one
    path.write_text("tap,x1,x2\n1,1.0,\n2,1.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 3: 2 fields for a header of 3$"):
        io.read_observations(path)


@pytest.mark.parametrize("read, header", [
    (io.read_trajectory, "step,x1,x2"),
    (io.read_turn_series, "turn,x,xp,y,yp"),
    (io.read_loss_history, "epoch,total,data,penalty"),
], ids=["trajectory", "turn_series", "loss_history"])
def test_series_readers_reject_rows_narrower_than_the_header(tmp_path, read, header):
    width = header.count(",") + 1
    full = ",".join(["1"] + ["0.5"] * (width - 1))
    path = tmp_path / "short.csv"
    path.write_text(f"{header}\n{full[:-4]}\n{full}\n")
    with pytest.raises(ValueError, match=rf"short\.csv, line 2: {width - 1} fields "
                                         rf"for a header of {width}$"):
        read(path)


@pytest.mark.parametrize("read, header, rows", [
    (io.read_turn_series, "turn,x,xp", "1,0.5,0.1\n"),
    (io.read_loss_history, "epoch,total", "1,0.5\n2,0.4\n3,0.3\n"),
], ids=["turn_series", "loss_history"])
def test_fixed_width_readers_reject_a_narrower_header(tmp_path, read, header, rows):
    path = tmp_path / "narrow.csv"
    path.write_text(f"{header}\n{rows}")
    with pytest.raises(ValueError, match=rf"narrow\.csv: expected header starting with "
                                         rf"'{header},.*', got '{header}'$"):
        read(path)


def test_trajectory_round_trip_and_extra_columns(tmp_path):
    rng = np.random.default_rng(4)
    states = rng.standard_normal((6, 2))
    ref = rng.standard_normal(6)
    path = tmp_path / "traj.csv"
    io.write_trajectory(states, path, extra={"ref_x1": ref})
    lines = path.read_text().splitlines()
    assert lines[0] == "step,x1,x2,ref_x1"
    assert lines[1].startswith("0,")
    back = io.read_trajectory(path)
    assert back.shape == (6, 3)
    assert back[:, :2].tobytes() == states.tobytes()
    assert back[:, 2].tobytes() == ref.tobytes()


def test_turn_series_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    series = lattice.TurnSeries(states=rng.standard_normal((70, 4)))
    path = tmp_path / "turns.csv"
    io.write_turn_series(series, path)
    assert path.read_text().splitlines()[0] == "turn,x,xp,y,yp"
    back = io.read_turn_series(path)
    assert back.states.tobytes() == series.states.tobytes()


def test_loss_history_round_trip(tmp_path):
    report = network.LossReport(
        total=np.array([3.0, 2.0, 1.5]),
        data=np.array([2.5, 1.5, 1.0]),
        penalty=np.array([5.0, 5.0, 5.0]),
        grad_norm=np.array([0.7, 0.125, 1e-3]),
        step_size=np.array([1e-2, 5e-3, 1e-3]),
        checkpoints={},
    )
    path = tmp_path / "loss.csv"
    io.write_loss_history(report, path)
    # the norm and learning rate follow the loss triple, which is read back
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,total,data,penalty,grad_norm,step_size"
    assert [float(f) for f in lines[2].split(",")[4:]] == [0.125, 5e-3]
    back = io.read_loss_history(path)
    assert np.array_equal(back["total"], report.total)
    assert np.array_equal(back["data"], report.data)
    assert np.array_equal(back["penalty"], report.penalty)


def test_manifest_round_trip_and_stable_view(tmp_path):
    manifest = io.RunManifest(
        command="derive",
        parameters={"dt": 0.1, "system": "free_fall"},
        inputs={"ode.json": "ab" * 32},
        seed=3,
        tool_version="0.1.0",
        duration_seconds=1.25,
        created_utc="2026-08-15T00:00:00+00:00",
    )
    path = tmp_path / "run.manifest.json"
    io.write_manifest(manifest, path)
    assert io.read_manifest(path) == manifest
    stable = io.manifest_stable_view(path)
    assert "duration_seconds" not in stable and "created_utc" not in stable
    assert stable["command"] == "derive" and stable["seed"] == 3


def test_sha256_file(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"abc")
    assert io.sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
