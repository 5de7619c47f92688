"""Result persistence: provenance-tagged tables and the binary state format.

Every file this module writes starts with the config hash so outputs can be
traced to the exact run description that produced them.  Text tables are for
inspection; the binary layout (docs/state_format.md) round-trips states at
full float64 precision and is byte-deterministic.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Sequence, Tuple

import numpy as np

from .phasespace import PhaseSpaceGrid, PhysicalConstants, grid_difference, make_grid
from .solvers.common import l2_norm
from .transform import WignerState

MAGIC = b"SDWG"
FORMAT_VERSION = 1
NULL_HASH = "0" * 64


def _format_float(x: float) -> str:
    # shortest digits that round-trip float64; keeps files byte-deterministic
    return format(float(x), ".17g")


def write_table(path, columns: Sequence[str], rows: Iterable[Sequence[float]],
                config_hash: str = NULL_HASH) -> Path:
    """Tab-separated table with a provenance line and a units header."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# config_sha256={config_hash}",
             "# columns: " + "\t".join(columns)]
    for row in rows:
        lines.append("\t".join(v if isinstance(v, str) else _format_float(v)
                               for v in row))
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def read_table(path) -> Tuple[str, list, np.ndarray]:
    """Inverse of write_table: (config hash, column names, value array).

    Tables are float-valued except for label columns (the magnitude report
    has one); those come back as an object array of strings and floats.
    """
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if len(text) < 2 or not text[0].startswith("# config_sha256="):
        raise ValueError(f"{path}: missing provenance header")
    config_hash = text[0].split("=", 1)[1]
    columns = text[1].removeprefix("# columns: ").split("\t")
    rows = [line.split("\t") for line in text[2:] if line]
    try:
        data = np.array([[float(v) for v in row] for row in rows], dtype=float)
    except ValueError:
        data = np.array([[_maybe_float(v) for v in row] for row in rows],
                        dtype=object)
    return config_hash, columns, data


def _maybe_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


# ---------------------------------------------------------------------------
# binary states
# ---------------------------------------------------------------------------

def write_state(path, state: WignerState, config_hash: str = NULL_HASH) -> Path:
    """Serialize a state with enough geometry to rebuild its grid.

    Layout (little endian): magic "SDWG", u16 version, u16 dim, u32 n_p per
    axis, u32 n_x per axis, f64 coherence length per axis, f64 window extent
    per axis, f64 hbar/charge/mass, 64 ASCII hex chars of config hash, f64
    time, then the values row-major as f64.
    """
    grid = state.grid
    if len(config_hash) != 64:
        raise ValueError("config_hash must be 64 hex characters")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    d = grid.dim
    head = [MAGIC, struct.pack("<HH", FORMAT_VERSION, d)]
    head.append(struct.pack(f"<{d}I", *grid.n_p))
    head.append(struct.pack(f"<{d}I", *grid.n_x))
    head.append(struct.pack(f"<{d}d", *grid.coherence_length))
    head.append(struct.pack(f"<{d}d", *grid.omega_extent))
    c = grid.constants
    head.append(struct.pack("<3d", c.hbar, c.charge, c.mass))
    head.append(config_hash.encode("ascii"))
    head.append(struct.pack("<d", state.time))
    payload = np.ascontiguousarray(state.values, dtype="<f8")
    with p.open("wb") as fh:
        fh.writelines(head + [payload.data])
    return p


def read_state(path) -> Tuple[WignerState, str]:
    """Read a state file back into (WignerState, config hash); the values view its buffer."""
    p = Path(path)
    raw = bytearray(p.stat().st_size)
    with p.open("rb") as fh:
        del raw[fh.readinto(raw):]
    grid, config_hash, time, off = _parse_header(raw, path)
    count = int(np.prod(grid.state_shape))
    if len(raw) - off != 8 * count:
        raise ValueError(f"{path}: payload holds {(len(raw) - off) // 8} values, "
                         f"grid needs {count}")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(grid.state_shape)
    return WignerState(grid=grid, values=values, time=time), config_hash


def read_state_header(path) -> Tuple[PhaseSpaceGrid, str, float]:
    """(grid, config hash, time) of a state file, read without its values."""
    with Path(path).open("rb") as fh:
        raw = fh.read(8)
        if len(raw) == 8:
            raw += fh.read(24 * struct.unpack_from("<H", raw, 6)[0] + 96)
    grid, config_hash, time, _ = _parse_header(raw, path)
    return grid, config_hash, time


def _parse_header(raw, path):
    """(grid, config hash, time, payload offset) from a state file's leading bytes."""
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a state file (bad magic)")
    if len(raw) < 8:
        raise ValueError(f"{path}: header cut short at {len(raw)} bytes")
    version, d = struct.unpack_from("<HH", raw, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    header = 8 + 24 * d + 96     # then 24 bytes per axis, constants, hash and time
    if len(raw) < header:
        raise ValueError(f"{path}: header cut short at {len(raw)} bytes, "
                         f"a {d}-D header needs {header}")
    off = 8
    n_p = struct.unpack_from(f"<{d}I", raw, off); off += 4 * d
    n_x = struct.unpack_from(f"<{d}I", raw, off); off += 4 * d
    L = struct.unpack_from(f"<{d}d", raw, off); off += 8 * d
    omega = struct.unpack_from(f"<{d}d", raw, off); off += 8 * d
    hbar, charge, mass = struct.unpack_from("<3d", raw, off); off += 24
    config_hash = raw[off:off + 64].decode("ascii"); off += 64
    (time,) = struct.unpack_from("<d", raw, off); off += 8
    constants = PhysicalConstants(hbar=hbar, charge=charge, mass=mass)
    return make_grid(d, L, omega, n_x, n_p, constants), config_hash, time, off


def relative_l2_diff(a: WignerState, b: WignerState) -> float:
    """Relative L2 distance between two states on matching grids
    (`grid_difference`), with its norms taken by `l2_norm`, so the value is
    the same at every BLAS thread count."""
    differ = grid_difference(a.grid, b.grid)
    if differ is not None:
        name, x, y = differ
        raise ValueError(f"the two states' grids differ in {name}: {x} vs {y}")
    denom = l2_norm(b.values)
    if denom == 0.0:
        return l2_norm(a.values)
    return l2_norm(a.values - b.values) / denom

