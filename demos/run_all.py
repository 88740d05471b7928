"""Run every demo script in order."""

import pathlib
import runpy

here = pathlib.Path(__file__).parent
for script in sorted(here.glob("0*.py")):
    print("=" * 72)
    print(f"== {script.name}")
    print("=" * 72)
    runpy.run_path(str(script), run_name="__main__")
    print()
