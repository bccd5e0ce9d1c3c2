"""The entries of tools/mutants.py still apply to the tree: each entry's
old text occurs exactly once in its file, and the mutated file still
compiles.  An entry left stale by an edit fails here in seconds, not only
when the mutation run starts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_entry_applies_once_and_compiles():
    bad = []
    for entry in mutants.MUTANTS + mutants.EQUIVALENT:
        try:
            compile(mutants.mutated(ROOT, entry), entry[0], "exec")
        except (ValueError, SyntaxError) as e:
            bad.append("%s (%s)" % (mutants.describe(entry), e))
    assert bad == []
