import pytest

from charzeros.chartab import character_table
from charzeros.constructions import build, registry, registry_names


@pytest.fixture(scope="session")
def get_group():
    cache = {}

    def _get(name: str):
        if name not in cache:
            cache[name] = build(name)
        return cache[name]

    return _get


@pytest.fixture(scope="session")
def get_table(get_group):
    cache = {}

    def _get(name: str, seed: int = 0):
        key = (name, seed)
        if key not in cache:
            cache[key] = character_table(get_group(name), seed=seed)
        return cache[key]

    return _get


@pytest.fixture(scope="session")
def corpus():
    return sorted(registry_names())


@pytest.fixture
def add_recipe(monkeypatch):
    """Put a recipe in front of the registry table for one test."""
    def _add(recipe):
        monkeypatch.setattr(registry, "RECIPES", (recipe,) + registry.RECIPES)

    return _add
