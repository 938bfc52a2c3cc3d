"""The bundled example inputs (profiles, workflows, clusters, scenarios)."""

from importlib import resources


def fixture_text(filename: str) -> str:
    return resources.files("stratus.data").joinpath(filename).read_text(encoding="utf-8")


def fixture_path(filename: str):
    """Filesystem path of a bundled data file, for loaders that resolve
    sibling references (scenario files name their workflow and cluster)."""
    return resources.files("stratus.data").joinpath(filename)
