"""Legacy setuptools entry point.

Kept so that ``pip install -e .`` works in offline environments that lack the
``wheel`` package (PEP 660 editable builds need it; the legacy code path does
not).  The repository declares no package metadata (there is no
``pyproject.toml`` or ``setup.cfg``), so setuptools discovers the ``repro``
package under ``src/`` by itself and installs it as ``UNKNOWN`` 0.0.0 with
no dependencies.  The third-party packages the code imports are listed in
the install step of the CI tests job (``.github/workflows/ci.yml``).
"""

from setuptools import setup

setup()
