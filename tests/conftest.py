import pytest


@pytest.fixture(autouse=True)
def _no_digits_from_environment(monkeypatch):
    # CERESA_DIGITS sets the CLI's default --digits; the suite pins output for the default
    # 30, so it must not inherit the variable. Tests that read it set it themselves.
    monkeypatch.delenv("CERESA_DIGITS", raising=False)
