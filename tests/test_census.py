"""The seeded-defect census stays applicable (tests/census.py).

Running the census takes over twenty minutes; these checks take none of it.  A
refactor that moves a seed's anchor text, or a seed added without
re-running the census, fails here instead of dropping a row silently.
"""

import ast

import pytest

from tests.census import DOC, REPO_ROOT, SEEDS, apply_seed, seed_names, seed_path, table_seed_names

SRC = REPO_ROOT / "src"


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: seed.name)
def test_anchor_occurs_once(seed):
    text = seed_path(seed, SRC).read_text()
    assert text.count(seed.anchor) == 1


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: seed.name)
def test_seeded_file_parses(seed, tmp_path):
    target = tmp_path / "src" / "repro" / seed.file
    target.parent.mkdir(parents=True)
    target.write_text(seed_path(seed, SRC).read_text())
    apply_seed(seed, tmp_path / "src")
    ast.parse(target.read_text())


def test_seed_names_are_unique():
    assert len(set(seed_names())) == len(SEEDS)


def test_docs_table_lists_exactly_the_seeds():
    assert table_seed_names(DOC.read_text()) == seed_names()


def test_every_checker_has_a_seed():
    """Each rule of the catalog and each sanitizer detector."""
    targets = {seed.target for seed in SEEDS}
    catalog = DOC.read_text().split("## Rule catalog")[1].split("\n## ")[0]
    rules = {line.split("|")[1].strip() for line in catalog.splitlines()
             if line.startswith("| ") and not line.startswith("| Rule")}
    assert rules | {"race"} <= targets
