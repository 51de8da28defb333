import pytest

from charzeros.constructions import build, registry, registry_names


@pytest.fixture(scope="session")
def built():
    """(group, validated table) of each registry group, built once."""
    cache = {}

    def _get(name: str):
        if name not in cache:
            cache[name] = build(name)
        return cache[name]

    return _get


@pytest.fixture(scope="session")
def get_group(built):
    return lambda name: built(name)[0]


@pytest.fixture(scope="session")
def get_table(built):
    return lambda name: built(name)[1]


@pytest.fixture(scope="session")
def corpus():
    return sorted(registry_names())


@pytest.fixture
def add_recipe(monkeypatch):
    """Put a recipe in front of the registry table for one test."""
    def _add(recipe):
        monkeypatch.setattr(registry, "RECIPES", (recipe,) + registry.RECIPES)

    return _add
