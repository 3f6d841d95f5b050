"""Docs-site integrity checks that run without mkdocs installed.

CI builds the site with ``mkdocs build --strict``; these tests catch the
same classes of breakage (missing nav pages, dead relative links,
mkdocstrings directives and cross-references pointing at objects that do
not exist) locally and in environments without the docs toolchain.
"""

import importlib
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"


def load_config():
    # mkdocs.yml may use python-specific tags in some setups; ours is plain.
    return yaml.safe_load(MKDOCS_YML.read_text())


def nav_paths(nav):
    """Flatten the mkdocs nav tree into page paths."""
    out = []
    for entry in nav:
        if isinstance(entry, str):
            out.append(entry)
        elif isinstance(entry, dict):
            for value in entry.values():
                if isinstance(value, str):
                    out.append(value)
                else:
                    out.extend(nav_paths(value))
    return out


def all_doc_pages():
    return sorted(DOCS_DIR.rglob("*.md"))


def resolve_identifier(identifier: str):
    """Import the object a mkdocstrings identifier points at."""
    parts = identifier.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(f"cannot import {identifier!r}")


class TestMkdocsConfig:
    def test_config_parses_and_is_strict(self):
        config = load_config()
        assert config["strict"] is True
        assert any(
            (p == "mkdocstrings") or (isinstance(p, dict) and "mkdocstrings" in p)
            for p in config["plugins"]
        )

    def test_every_nav_page_exists(self):
        for page in nav_paths(load_config()["nav"]):
            assert (DOCS_DIR / page).is_file(), f"nav page missing: {page}"

    def test_every_doc_page_is_in_nav(self):
        in_nav = set(nav_paths(load_config()["nav"]))
        on_disk = {str(p.relative_to(DOCS_DIR)) for p in all_doc_pages()}
        assert on_disk == in_nav

    def test_api_reference_covers_required_packages(self):
        """The acceptance criterion: rendered API reference for
        repro.experiments, repro.service and repro.kernel."""
        text = "".join(
            (DOCS_DIR / "api" / name).read_text()
            for name in ("experiments.md", "service.md", "kernel.md")
        )
        for module in (
            "repro.experiments.spec",
            "repro.experiments.cache",
            "repro.experiments.runner",
            "repro.service.batch",
            "repro.kernel.context",
            "repro.kernel.vectorized",
        ):
            assert f"::: {module}" in text, f"API page missing ::: {module}"


class TestPageIntegrity:
    def test_mkdocstrings_directives_import(self):
        directives = []
        for page in all_doc_pages():
            directives += re.findall(
                r"^::: +([\w.]+)", page.read_text(), flags=re.MULTILINE
            )
        assert directives, "no mkdocstrings directives found"
        for identifier in directives:
            resolve_identifier(identifier)  # raises on a dead target

    def test_cross_references_resolve(self):
        refs = []
        for page in all_doc_pages():
            refs += re.findall(r"\]\[([\w.]+)\]", page.read_text())
        assert refs, "no mkdocstrings cross-references found"
        for identifier in set(refs):
            resolve_identifier(identifier)

    def test_relative_links_resolve(self):
        for page in all_doc_pages():
            for target in re.findall(r"\]\(([^)]+)\)", page.read_text()):
                if target.startswith(("http://", "https://", "#", "mailto:")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (page.parent / path).resolve()
                assert resolved.exists(), f"{page.name}: dead link {target}"

    def test_readme_links_resolve(self):
        readme = REPO_ROOT / "README.md"
        for target in re.findall(r"\]\(([^)]+)\)", readme.read_text()):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            assert (REPO_ROOT / path).exists(), f"README: dead link {target}"

    def test_example_spec_referenced_by_docs_exists(self):
        assert (REPO_ROOT / "examples" / "campaign_small.yaml").is_file()


class TestExampleSpec:
    """The shipped example spec must validate and demonstrate the
    named-strategy solver entry the campaign docs describe."""

    def load_example(self):
        from repro.experiments import load_spec

        return load_spec(REPO_ROOT / "examples" / "campaign_small.yaml")

    def test_example_spec_validates(self):
        spec = self.load_example()
        assert spec.name == "small-sweep"
        assert spec.n_cells == len(spec.grid) * len(spec.solvers)

    def test_example_spec_has_a_named_strategy_entry(self):
        from repro.strategies import parse_strategy

        import yaml

        spec = self.load_example()
        raw = yaml.safe_load(
            (REPO_ROOT / "examples" / "campaign_small.yaml").read_text()
        )
        named = [e["name"] for e in raw["solvers"] if "strategy" in e]
        assert named, "example spec must show a strategy: entry"
        solver = next(s for s in spec.solvers if s.name == named[0])
        assert parse_strategy(solver.strategy).spec == solver.strategy
        # a bounded, seeded budget keeps the example deterministic
        assert solver.budget is not None
        assert solver.budget.max_evaluations is not None
        assert solver.budget.seed is not None

    def test_docs_show_the_strategy_entry(self):
        campaigns_page = (DOCS_DIR / "campaigns.md").read_text()
        assert "strategy:" in campaigns_page
        assert "budget:" in campaigns_page


@pytest.mark.skipif(
    importlib.util.find_spec("mkdocs") is None,
    reason="mkdocs not installed (CI runs the real strict build)",
)
class TestRealBuild:
    def test_mkdocs_build_strict(self, tmp_path):
        from mkdocs.commands.build import build as mkdocs_build
        from mkdocs.config import load_config as mkdocs_load_config

        config = mkdocs_load_config(
            config_file=str(MKDOCS_YML), site_dir=str(tmp_path / "site")
        )
        mkdocs_build(config)
