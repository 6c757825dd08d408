"""JSON encodings of every file the command line reads or writes.

Complex vectors: {"n": N, "re": [...], "im": [...]}. The bispectra bm and bfm
are those of real vectors, so 12 symmetries fix each entry (the 6
permutations of the frequency triple (i, j, -i - j), and negation, which
conjugates). A bundle stores each once per orbit: B[a, b] for each
canonical triple (a, b, c) of invariants._canonical_triples, in
lexicographic order, a little over N**2 / 12 entries per matrix. Its file
packs those stored values as they are, as {"dtype": "<c16", "data": base64
of their little-endian complex128 bytes}, and the reader builds the bundle
from them; neither forms a matrix, and the writer checks nothing, since a
matrix enters a bundle only through HeisenbergInvariants.from_matrices.
That keeps every bit and is not meant for hand editing; the power sum iN
and every other file keep {"re": ..., "im": ...} numbers. All values
assume the package-wide transform convention documented in spectral.py. A
recovery report holds the candidate, success, one stage_residuals entry per
StageResiduals field (a not-a-number residual serializes as null) and the
diagnostics that recover_orbit documents. The experiment spec lives here
too, with its dataclass; its one seed drives both the sampled signals and
the recovery starts, its pr_config section sets only max_restarts, its
tolerances section only recovery_tol, and any other key is an error.

Every input is decoded through the same private readers: an integer field is
a JSON integer (not a bool), a number field holds finite JSON numbers of an
exact shape, and a packed field holds finite values of an exact count.
Anything else raises InputFormatError.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any

import numpy as np

from .cyclic import WeightedCyclicInvariants
from .errors import InputFormatError
from .group import GroupElement
from .invariants import HeisenbergInvariants, _orbit_count
from .phase_retrieval import PhaseRetrievalConfig
from .pipeline import OrbitRecoveryReport
from .spectral import DEFAULT_RECOVERY_TOL, checked_integer, checked_tolerance


def load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputFormatError(f"cannot read JSON from {path}: {exc}") from exc


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field(obj, key, where):
    if not isinstance(obj, dict):
        raise InputFormatError(f"{where}: expected a JSON object")
    if key not in obj:
        raise InputFormatError(f"{where}: missing field {key!r}")
    return obj[key]


def _int(obj, key, where, minimum=None) -> int:
    """A JSON integer field that passes checked_integer with `minimum`."""
    try:
        return checked_integer(_field(obj, key, where), minimum, f"field {key!r}")
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def _numbers(obj, key, where, shape=()):
    """Finite JSON numbers of exactly `shape`, as float64.

    `()` is one number (returned as a float) and `(n,)` a vector. Strings
    and bools fail the numeric-dtype check; so do null and integers too
    large for a float.
    """
    value = _field(obj, key, where)
    try:
        arr = np.asarray(value)
        # numpy keeps integers beyond 64 bits as Python objects
        if arr.dtype == object and all(type(v) in (int, float) for v in arr.flat):
            arr = arr.astype(np.float64)
    except (ValueError, OverflowError) as exc:
        raise InputFormatError(f"{where}: field {key!r}: {exc}") from exc
    if arr.dtype.kind not in "iuf" or arr.shape != shape:
        raise InputFormatError(f"{where}: field {key!r} must hold numbers of shape {shape}")
    arr = arr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(arr)):
        raise InputFormatError(f"{where}: field {key!r} must be finite")
    return arr if shape else float(arr)


def _complex(obj, where, shape=()):
    """Complex numbers of `shape` stored as {"re": ..., "im": ...} in obj.

    The parts are copied in, not summed, so a -0.0 part keeps its sign. A
    number whose parts are JSON ints or floats in the float range skips the array path.
    """
    if not shape and isinstance(obj, dict):
        parts = obj.get("re"), obj.get("im")
        if all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in parts):
            return complex(float(parts[0]), float(parts[1]))
    values = np.empty(shape, dtype=np.complex128)
    values.real = _numbers(obj, "re", where, shape)
    values.imag = _numbers(obj, "im", where, shape)
    return values if shape else complex(values)


def _complex_to_json(values) -> dict:
    values = np.asarray(values, dtype=np.complex128)
    return {"re": values.real.tolist(), "im": values.imag.tolist()}


def complex_vector_to_json(x) -> dict:
    x = np.asarray(x, dtype=np.complex128)
    return {"n": int(len(x)), **_complex_to_json(x)}


def complex_vector_from_json(obj) -> np.ndarray:
    where = "complex vector"
    return _complex(obj, where, (_int(obj, "n", where, minimum=1),))


def group_element_to_json(g: GroupElement) -> dict:
    return {"N": g.order, "k": g.k, "n": g.n, "m": g.m}


# The dtype of packed bispectrum values: little-endian complex128
_PACKED_DTYPE = "<c16"


def _orbit_values_to_json(values) -> dict:
    """Canonical-triple values, packed."""
    data = base64.b64encode(values.astype(_PACKED_DTYPE, copy=False).tobytes())
    return {"dtype": _PACKED_DTYPE, "data": data.decode("ascii")}


def _orbit_values(obj, n, where) -> np.ndarray:
    """The canonical-triple values of order n that obj packs, read-only.

    The byte count is checked against the closed-form orbit count, which
    needs no table of order n; finiteness is left to the bundle's
    constructor.
    """
    if _field(obj, "dtype", where) != _PACKED_DTYPE:
        raise InputFormatError(f"{where}: field 'dtype' must be {_PACKED_DTYPE!r}")
    data = _field(obj, "data", where)
    if not isinstance(data, str):
        raise InputFormatError(f"{where}: field 'data' must be a base64 string")
    try:
        # binascii.Error, or ValueError for a character outside ASCII
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:
        raise InputFormatError(f"{where}: field 'data' is not base64: {exc}") from exc
    count = _orbit_count(n)
    if len(raw) != 16 * count:
        raise InputFormatError(
            f"{where}: field 'data' must hold {count} complex128 values "
            f"({16 * count} bytes), not {len(raw)} bytes"
        )
    return np.frombuffer(raw, dtype=_PACKED_DTYPE)


def invariants_to_json(inv: HeisenbergInvariants) -> dict:
    return {
        "n": inv.n,
        "bm": _orbit_values_to_json(inv.bm_values),
        "bfm": _orbit_values_to_json(inv.bfm_values),
        "iN": _complex_to_json(inv.power_sum),
    }


def invariants_from_json(obj) -> HeisenbergInvariants:
    where = "invariant bundle"
    n = _int(obj, "n", where, minimum=1)
    places = {name: f"{where} ({name}), one entry per symmetry orbit" for name in ("bm", "bfm")}
    bm, bfm = (_orbit_values(_field(obj, name, where), n, places[name]) for name in places)
    power = _complex(_field(obj, "iN", where), where + " (iN)")
    try:
        return HeisenbergInvariants(n=n, bm_values=bm, bfm_values=bfm, power_sum=power)
    except ValueError as exc:
        # n, the counts and iN passed above, so a packed value is not finite;
        # the constructor's check is the only one on the happy path
        name = "bm" if not np.isfinite(bm).all() else "bfm"
        raise InputFormatError(f"{places[name]}: field 'data' must be finite") from exc


def weighted_invariants_to_json(inv: WeightedCyclicInvariants) -> dict:
    return {"n": inv.n, "r": float(inv.r), "a": [_complex_to_json(v) for v in inv.a]}


def weighted_invariants_from_json(obj) -> WeightedCyclicInvariants:
    where = "weighted invariants"
    n = _int(obj, "n", where, minimum=1)
    r = _numbers(obj, "r", where)
    entries = _field(obj, "a", where)
    if not isinstance(entries, list) or len(entries) != n:
        raise InputFormatError(f"{where}: 'a' must be a list of length {n}")
    chain = tuple(_complex(entry, where + " (a)") for entry in entries)
    try:
        return WeightedCyclicInvariants(r=r, a=chain)
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentSpec:
    """Monte-Carlo run: dimensions, trial count, seed, start budget, tolerance.

    recovery_tol also bounds the orbit distance of a successful trial.
    """

    n_values: tuple[int, ...]
    trials: int
    seed: int
    max_restarts: int
    recovery_tol: float


# The reader of each key an experiment spec section may set; omitted keys take
# the recover_orbit defaults.
_SPEC_SECTIONS = {
    "pr_config": {"max_restarts": partial(_int, minimum=1)},
    "tolerances": {"recovery_tol": _numbers},
}


def experiment_spec_from_json(obj) -> ExperimentSpec:
    where = "experiment spec"
    n_values = _field(obj, "n_values", where)
    if not isinstance(n_values, list) or not n_values:
        raise InputFormatError(f"{where}: 'n_values' must be a nonempty list")
    unknown = set(obj) - {"n_values", "trials", "seed", *_SPEC_SECTIONS}
    if unknown:
        raise InputFormatError(f"{where}: unknown keys {sorted(unknown)}")
    seed = _int(obj, "seed", where, minimum=0)
    settings = {}
    for section, readers in _SPEC_SECTIONS.items():
        values = obj.get(section, {})
        if not isinstance(values, dict) or not set(values) <= set(readers):
            raise InputFormatError(
                f"{where}: {section!r} must be an object with keys among {sorted(readers)}"
            )
        settings.update(
            (key, readers[key](values, key, f"{where} ({section})")) for key in values
        )
    try:
        recovery_tol = checked_tolerance(settings.get("recovery_tol", DEFAULT_RECOVERY_TOL))
    except ValueError as exc:
        raise InputFormatError(f"{where} (tolerances): field 'recovery_tol': {exc}") from exc
    return ExperimentSpec(
        # each entry is read as the field itself, so errors name n_values
        n_values=tuple(_int({"n_values": n}, "n_values", where, minimum=2) for n in n_values),
        trials=_int(obj, "trials", where, minimum=1),
        seed=seed,
        max_restarts=settings.get("max_restarts", PhaseRetrievalConfig.max_restarts),
        recovery_tol=recovery_tol,
    )


def _nan_to_null(value: float):
    return None if not math.isfinite(value) else float(value)


def recovery_report_to_json(report: OrbitRecoveryReport) -> dict:
    return {
        "candidate": complex_vector_to_json(report.candidate),
        "success": bool(report.success),
        "stage_residuals": {
            name: _nan_to_null(value) for name, value in asdict(report.stage_residuals).items()
        },
        "diagnostics": report.diagnostics,
    }
