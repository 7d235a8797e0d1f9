"""Run the tier-1 CI workflow's shell steps on this machine, in order.

Every `run:` step of .github/workflows/tier1.yml runs from the repository
root under `bash --noprofile --norc -eo pipefail`, the shell GitHub
Actions uses by default.  The `uses:` steps (checkout, setup-python) and
the `pip install` step are skipped, so the packages the workflow pins must
already be installed.  The first failing step stops the run, and its exit
status is this script's.

    python3 tools/run_ci.py

Reading the workflow needs pyyaml.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SHELL = ["bash", "--noprofile", "--norc", "-eo", "pipefail"]


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    for job, spec in jobs.items():
        for step in spec["steps"]:
            name = f"{job}: {step.get('name') or step.get('uses') or step.get('run')}"
            script = step.get("run")
            if script is None or "pip install" in script:
                print(f"== skip {name}", flush=True)
                continue
            print(f"== run {name}", flush=True)
            with tempfile.NamedTemporaryFile("w", suffix=".sh") as f:
                f.write(script)
                f.flush()
                code = subprocess.run([*SHELL, f.name], cwd=ROOT).returncode
            if code:
                print(f"== failed with exit {code}: {name}", flush=True)
                return code
    print("== every step passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
