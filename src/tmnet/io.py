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
    if not isinstance(data["monitors"], list):
        raise ValueError(f"lattice monitors must be a list, got {data['monitors']!r}")
    elements = []
    for j, entry in enumerate(data["elements"]):
        if not isinstance(entry, dict):
            raise ValueError(f"lattice element {j} must be a JSON object, got {entry!r}")
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


def _read_table(path, fixed: tuple, parse) -> list:
    """parse(row) of each non-empty row, as it is read, of a CSV file whose
    header starts with the columns `fixed` and whose rows have exactly as
    many fields as it; else a ValueError naming the file (and the line)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[0] != fixed[0]:
            raise ValueError(f"{path}: expected header starting with {fixed[0]!r}")
        if tuple(header[: len(fixed)]) != fixed:
            raise ValueError(f"{path}: expected header starting with {','.join(fixed)!r}, "
                             f"got {','.join(header)!r}")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} fields "
                                 f"for a header of {len(header)}")
            rows.append(parse(row))
        return rows


def write_observations(obs: network.ObservationSeries, path) -> None:
    _write_table(path, ["tap"] + component_names(obs.values.shape[1]), (
        [str(tap)] + [_fmt(v) if m else "" for v, m in zip(row, mrow)]
        for tap, row, mrow in zip(obs.taps, obs.values, obs.mask)
    ))


def read_observations(path) -> network.ObservationSeries:
    rows = _read_table(path, ("tap",), list)
    fields = [row[1:] for row in rows]
    return network.ObservationSeries(
        taps=tuple(int(row[0]) for row in rows),
        values=np.array([[float(f) if f != "" else np.nan for f in fs] for fs in fields]),
        mask=np.array([[f != "" for f in fs] for fs in fields], dtype=bool),
    )


def write_trajectory(states, path, extra=None) -> None:
    """CSV `step,<components>`; `extra` maps column name -> array to append
    (used for reference columns)."""
    states = np.asarray(states, dtype=float)
    extra = {} if extra is None else {k: np.asarray(v, float) for k, v in extra.items()}
    _write_table(path, ["step"] + component_names(states.shape[1]) + list(extra), (
        [str(i)] + [_fmt(v) for v in row] + [_fmt(extra[k][i]) for k in extra]
        for i, row in enumerate(states)
    ))


def read_trajectory(path) -> np.ndarray:
    """The component columns of a trajectory CSV (extra columns included)."""
    rows = _read_table(path, ("step",), lambda row: [float(f) for f in row[1:]])
    return np.array(rows, dtype=float)


_TURN_COLUMNS = ("turn", "x", "xp", "y", "yp")
_LOSS_COLUMNS = ("epoch", "total", "data", "penalty")


def write_turn_series(series: lattice_mod.TurnSeries, path) -> None:
    _write_table(path, _TURN_COLUMNS, (
        [str(i + 1)] + [_fmt(v) for v in row] for i, row in enumerate(series.states)
    ))


def read_turn_series(path) -> lattice_mod.TurnSeries:
    rows = _read_table(path, _TURN_COLUMNS, lambda row: [float(f) for f in row[1:5]])
    return lattice_mod.TurnSeries(states=np.array(rows, dtype=float))


def write_loss_history(report: network.LossReport, path) -> None:
    _write_table(path, _LOSS_COLUMNS, (
        [str(i + 1)] + [_fmt(v) for v in parts]
        for i, parts in enumerate(zip(report.total, report.data, report.penalty))
    ))


def read_loss_history(path) -> dict:
    rows = _read_table(path, _LOSS_COLUMNS, lambda row: [float(f) for f in row[1:4]])
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
