"""Output checks against references kept with the benchmark.

Integers and labels (``t``, ``levels``, ``servers_on``, CSV headers) must
match exactly; floats must agree to ``REL_TOL`` relative, the repository's
differential tolerance, with an ``ABS_FLOOR`` for values that are zero on
one side.
"""

import json

REL_TOL = 1e-9
ABS_FLOOR = 1e-12


def close(a, b):
    """True when two floats agree to the differential tolerance."""
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def _cell_ok(a, b):
    if a == b:
        return True
    try:
        return close(float(a), float(b))
    except ValueError:
        return False


def compare_csv(text, ref_text):
    """Problems (empty when equal) between a figure CSV and its reference."""
    rows, ref = text.splitlines(), ref_text.splitlines()
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    for i, (row, want) in enumerate(zip(rows, ref)):
        cells, want_cells = row.split(","), want.split(",")
        if len(cells) != len(want_cells) or (i == 0 and row != want):
            return [f"row {i}: {row[:80]!r} != {want[:80]!r}"]
        for a, b in zip(cells, want_cells):
            if not _cell_ok(a, b):
                return [f"row {i}: {a} != {b}"]
    return []


_EXACT = ("type", "t", "policy", "levels", "servers_on")
_FLOATS = ("total_cost", "brown_energy")


def decision_matches(line, ref_line):
    """True when a published decision line agrees with its reference."""
    if line == ref_line:
        return True
    try:
        got, want = json.loads(line), json.loads(ref_line)
    except ValueError:
        return False
    try:
        return _fields_match(got, want)
    except (KeyError, TypeError):
        return False  # a field is missing or of the wrong type


def _fields_match(got, want):
    if any(got.get(k) != want.get(k) for k in _EXACT):
        return False
    if not all(close(got[k], want[k]) for k in _FLOATS):
        return False
    loads, want_loads = got["loads"], want["loads"]
    if len(loads) != len(want_loads) or not all(map(close, loads, want_loads)):
        return False
    tele, want_tele = got.get("telemetry"), want.get("telemetry")
    if tele is None or want_tele is None:
        return tele is want_tele
    return (tele["frame_pos"] == want_tele["frame_pos"]
            and close(tele["deficit_kwh"], want_tele["deficit_kwh"])
            and close(tele["v"], want_tele["v"]))


def decision_lines(blob):
    """The decision lines of a published NDJSON stream, keyed by slot."""
    out = {}
    for line in blob.splitlines():
        if line.startswith(b'{"type":"decision"'):
            try:
                at = line.index(b'"t":') + 4
                t = int(line[at:line.index(b',', at)])
            except ValueError:
                continue  # no slot number: the slot counts as unanswered
            out[t] = line
    return out


def count_correct(blob, reference):
    """Slots of ``reference`` (slot -> line) that ``blob`` answered with a
    matching decision."""
    got = decision_lines(blob)
    return sum(1 for t, ref in reference.items()
               if t in got and decision_matches(got[t], ref))
