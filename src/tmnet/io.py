"""File formats: JSON for structured objects, CSV for series.

CSV files carry a header row, UTF-8, '.' decimal separator, and floats
printed with repr so values round-trip to the exact double.  An empty CSV
field means "unobserved".  Every CLI run writes a manifest with input
digests so reruns are byte-comparable except for the volatile fields.
"""

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from tmnet import lattice as lattice_mod
from tmnet import maps, network, ode


def _fmt(value: float) -> str:
    return repr(float(value))


def component_names(dim: int) -> list[str]:
    return [f"x{i + 1}" for i in range(dim)]


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --- maps and systems ---------------------------------------------------------


def save_map(tm: maps.TaylorMap, path) -> None:
    _dump_json(tm.to_dict(), path)


def _load_kind(path, key: str, kind: str) -> dict:
    """JSON object of a file that must hold a `key` list, else a ValueError
    naming the expected kind of file."""
    data = _load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get(key), list):
        raise ValueError(f"{path}: not {kind} file (no '{key}' list)")
    return data


def load_map(path) -> maps.TaylorMap:
    return maps.TaylorMap.from_dict(_load_kind(path, "weights", "a map"))


def save_ode(system: ode.PolynomialODE, path) -> None:
    _dump_json(system.to_dict(), path)


def load_ode(path) -> ode.PolynomialODE:
    return ode.PolynomialODE.from_dict(_load_kind(path, "coeffs", "an ODE"))


# --- lattices ---------------------------------------------------------


def lattice_to_dict(lat: lattice_mod.Lattice) -> dict:
    elements = []
    for e in lat.elements:
        entry = {"label": e.label, "map": e.tm.to_dict()}
        if e.generator is not None:
            entry["generator"] = e.generator.to_dict()
            entry["dt"] = e.dt
            entry["substeps"] = e.substeps
        elements.append(entry)
    return {
        "dim": 4,
        "order": lat.order,
        "elements": elements,
        "monitors": list(lat.monitors),
        "ring": lat.ring,
    }


def lattice_from_dict(data: dict) -> lattice_mod.Lattice:
    elements = []
    for entry in data["elements"]:
        tm = maps.TaylorMap.from_dict(entry["map"])
        gen = entry.get("generator")
        elements.append(
            lattice_mod.LatticeElement(
                label=entry["label"],
                tm=tm,
                generator=None if gen is None else ode.PolynomialODE.from_dict(gen),
                dt=entry.get("dt"),
                substeps=entry.get("substeps", 1000) if gen is not None else None,
            )
        )
    return lattice_mod.Lattice(
        elements=elements,
        monitors=tuple(data["monitors"]),
        ring=bool(data.get("ring", True)),
    )


def save_lattice(lat: lattice_mod.Lattice, path) -> None:
    _dump_json(lattice_to_dict(lat), path)


def load_lattice(path) -> lattice_mod.Lattice:
    return lattice_from_dict(_load_kind(path, "elements", "a lattice"))


# --- CSV series ---------------------------------------------------------


def _write_table(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(path, first: str, parse) -> tuple[list[str], list]:
    """Header and parse(row) of each non-empty row, as it is read, of a CSV
    file whose header starts with `first`; else a ValueError naming it."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[0] != first:
            raise ValueError(f"{path}: expected header starting with {first!r}")
        return header, [parse(row) for row in reader if row]


def write_observations(obs: network.ObservationSeries, path, names=None) -> None:
    names = component_names(obs.values.shape[1]) if names is None else list(names)
    _write_table(path, ["tap"] + names, (
        [str(tap)] + [_fmt(v) if m else "" for v, m in zip(row, mrow)]
        for tap, row, mrow in zip(obs.taps, obs.values, obs.mask)
    ))


def read_observations(path) -> network.ObservationSeries:
    header, rows = _read_table(path, "tap", list)
    n = len(header) - 1
    fields = [row[1:] + [""] * (n - len(row) + 1) for row in rows]
    return network.ObservationSeries(
        taps=tuple(int(row[0]) for row in rows),
        values=np.array([[float(f) if f != "" else np.nan for f in fs] for fs in fields]),
        mask=np.array([[f != "" for f in fs] for fs in fields], dtype=bool),
    )


def write_trajectory(states, path, names=None, extra=None) -> None:
    """CSV `step,<components>`; `extra` maps column name -> array to append
    (used for reference columns)."""
    states = np.asarray(states, dtype=float)
    names = component_names(states.shape[1]) if names is None else list(names)
    extra = {} if extra is None else {k: np.asarray(v, float) for k, v in extra.items()}
    _write_table(path, ["step"] + names + list(extra), (
        [str(i)] + [_fmt(v) for v in row] + [_fmt(extra[k][i]) for k in extra]
        for i, row in enumerate(states)
    ))


def read_trajectory(path) -> np.ndarray:
    """The component columns of a trajectory CSV (extra columns included)."""
    _, rows = _read_table(path, "step", lambda row: [float(f) for f in row[1:]])
    return np.array(rows, dtype=float)


def write_turn_series(series: lattice_mod.TurnSeries, path) -> None:
    _write_table(path, ["turn", "x", "xp", "y", "yp"], (
        [str(i + 1)] + [_fmt(v) for v in row] for i, row in enumerate(series.states)
    ))


def read_turn_series(path) -> lattice_mod.TurnSeries:
    _, rows = _read_table(path, "turn", lambda row: [float(f) for f in row[1:5]])
    return lattice_mod.TurnSeries(states=np.array(rows, dtype=float))


def write_loss_history(report: network.LossReport, path) -> None:
    _write_table(path, ["epoch", "total", "data", "penalty"], (
        [str(i + 1)] + [_fmt(v) for v in parts]
        for i, parts in enumerate(zip(report.total, report.data, report.penalty))
    ))


def read_loss_history(path) -> dict:
    _, rows = _read_table(path, "epoch", lambda row: [float(f) for f in row[1:4]])
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return {"total": arr[:, 0], "data": arr[:, 1], "penalty": arr[:, 2]}


# --- run manifests ---------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run.  `duration_seconds` and `created_utc` are the
    volatile fields: two runs with identical inputs differ only there."""

    command: str
    parameters: dict
    inputs: dict
    seed: int | None
    tool_version: str
    duration_seconds: float
    created_utc: str

    VOLATILE = ("duration_seconds", "created_utc")


def write_manifest(manifest: RunManifest, path) -> None:
    _dump_json(dataclasses.asdict(manifest), path)


def read_manifest(path) -> RunManifest:
    return RunManifest(**_load_json(path))


def manifest_stable_view(path) -> dict:
    """The manifest with volatile fields removed, for rerun comparison."""
    data = _load_json(path)
    for key in RunManifest.VOLATILE:
        data.pop(key, None)
    return data
