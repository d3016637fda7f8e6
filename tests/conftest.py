from pathlib import Path

import pytest

from treelogic import TreeAutomaton

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def automaton_fields(aut: TreeAutomaton) -> tuple:
    """Everything that makes up an automaton, for field-for-field equality."""
    return (aut.width, aut.states, aut.initial, aut.finals, aut.transitions,
            aut.sink, aut.deterministic)


@pytest.fixture(scope="session")
def ac_com_automaton() -> TreeAutomaton:
    return TreeAutomaton.from_text(fixture_text("ac_com.aut"))


@pytest.fixture(scope="session")
def local_c_command_automaton() -> TreeAutomaton:
    return TreeAutomaton.from_text(fixture_text("local_c_command.aut"))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES
