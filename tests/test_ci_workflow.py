"""The CI tests job installs every third-party module the code imports,
and the product imports none of the test-only ones."""

import ast
import os
import re
import subprocess
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "perfbench")


def _normalise(distribution: str) -> str:
    return re.sub(r"[-_.]+", "-", distribution).lower()


def _installed_by_ci() -> set[str]:
    """Distributions the tests job's "Install dependencies" step installs."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    match = re.search(
        r"- name: Install dependencies\n(?:\s+#[^\n]*\n)*\s+run: python -m pip install ([^\n]+)",
        text,
    )
    assert match, "the tests job has no 'Install dependencies' pip step"
    return {_normalise(name) for name in match.group(1).split()}


def _first_party() -> set[str]:
    """Top-level names that resolve inside the repository: the package, the
    scanned directories and the modules scripts import from their own
    directory."""
    names = {"repro", *SCANNED}
    for directory in SCANNED:
        names.update(path.stem for path in (ROOT / directory).glob("*.py"))
    return names


def _imports() -> dict[str, str]:
    """Every absolutely imported top-level module -> one file importing it."""
    found: dict[str, str] = {}
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    found.setdefault(module.split(".")[0], str(path.relative_to(ROOT)))
    return found


def test_ci_installs_every_third_party_import():
    installed = _installed_by_ci()
    local = _first_party()
    distributions = packages_distributions()
    imports = _imports()
    assert "numpy" in imports and "sys" in imports  # the scan sees real imports
    missing = {
        module: where
        for module, where in imports.items()
        if module not in sys.stdlib_module_names
        and module not in local
        and not {_normalise(d) for d in distributions.get(module, [module])} & installed
    }
    assert not missing, f"imported but not installed by the CI tests job: {missing}"


def test_product_does_not_import_test_only_dependencies():
    """scipy and networkx serve the tests' oracles only: importing the
    package, the pipeline, the CLI and the certificate checkers in a fresh
    interpreter loads neither."""
    script = (
        "import sys\n"
        "import repro, repro.core.pipeline, repro.cli, repro.analysis.certify\n"
        "print(sorted({'scipy', 'networkx'} & {m.split('.')[0] for m in sys.modules}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]", done.stdout + done.stderr
