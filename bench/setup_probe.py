"""Cold set-up as a CLI user pays it: import, parse, enumerate_tables(1..8).

Run as a script, it measures one cold set-up in its own fresh interpreter
and prints the timings as one JSON line:

    python3 bench/setup_probe.py <src-dir> <presentation-file-text>
"""

from __future__ import annotations

import importlib
import json
import sys

from pace import Pacer, paced

ORDERS = range(1, 9)  # the solver's default table-order cap is 8


def measure_setup(src_dir: str, presentation_text: str) -> dict:
    """Time a cold set-up in this process; wordrace must not be imported yet.

    ``setup_s`` is in reference-speed seconds (see ``pace.py``);
    ``raw_setup_s`` and the per-order ``enumerate_s`` are as read from the
    clock, with the calibration pauses left out.
    """
    if "wordrace" in sys.modules:
        raise RuntimeError("set-up must be measured before wordrace is imported")
    if sys.path[0] != src_dir:
        sys.path.insert(0, src_dir)
    pacer = Pacer()
    pacer.calibrate()
    start = pacer.work_clock()
    wordrace = importlib.import_module("wordrace")
    p = wordrace.parse_presentation(presentation_text)
    p.close()
    enumerate_s = []
    # Enumeration checks every complete table it finds, so this reaches inside it.
    unpace = paced(wordrace.tables, "is_group_table", pacer)
    try:
        for order in ORDERS:
            t0 = pacer.work_clock()
            wordrace.enumerate_tables(order)
            enumerate_s.append(pacer.work_clock() - t0)
    finally:
        unpace()
    end = pacer.work_clock()
    pacer.calibrate()
    return {
        "setup_s": pacer.ref_seconds(start, end),
        "raw_setup_s": end - start,
        "enumerate_s": enumerate_s,
    }


if __name__ == "__main__":
    print(json.dumps(measure_setup(sys.argv[1], sys.argv[2])))
