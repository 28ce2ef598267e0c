"""The package functions that ``perfbench``'s traced mode wraps still exist.

``perfbench/tracing.py`` names its layer boundaries as (module, function)
pairs and the CLI's file functions by name; a rename or removal in the
package would otherwise surface only when a traced benchmark run fails.
The two lists are read from the file's source, which is neither imported
nor modified.
"""

import ast
from pathlib import Path

import metricdepth
import metricdepth.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _assigned_lists(path, names):
    """The literal values assigned to ``names`` at the top level of ``path``."""
    tree = ast.parse(path.read_text())
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in names}


def test_traced_functions_resolve_on_the_package():
    lists = _assigned_lists(TRACING, {"LAYER_FUNCTIONS", "CLI_IO_FUNCTIONS"})
    layers, cli_io = lists["LAYER_FUNCTIONS"], lists["CLI_IO_FUNCTIONS"]
    assert layers and cli_io
    missing = [f"{mod}.{name}" for mod, name in layers
               if not callable(getattr(getattr(metricdepth, mod, None), name, None))]
    missing += [f"cli.{name}" for name in cli_io
                if not callable(getattr(metricdepth.cli, name, None))]
    assert missing == []
