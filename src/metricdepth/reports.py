"""Machine-readable report envelopes shared by the CLI.

Every report is a JSON object with a ``schema_version`` string, the
command and its fully resolved configuration, and a command-specific
payload. Floats serialize via Python's shortest round-trip representation.
Timing fields are ``null`` unless explicitly requested, so repeated runs
of the same command are byte-identical.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = "1"


def envelope(command: str, config: dict, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        **payload,
    }


def dump_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")

