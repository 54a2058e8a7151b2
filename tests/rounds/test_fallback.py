"""The closed vocabulary of backend fallback reasons (``repro.rounds.fallback``)."""

from __future__ import annotations

from string import Formatter

import pytest

from repro.rounds.fallback import FallbackReason


def test_the_vocabulary_has_twelve_reasons():
    assert len(FallbackReason) == 12


@pytest.mark.parametrize("reason", list(FallbackReason), ids=lambda r: r.name)
def test_every_reason_renders_from_its_named_fields(reason):
    fields = [name for _, name, _, _ in Formatter().parse(reason.value) if name is not None]
    assert all(name.isidentifier() for name in fields), fields
    rendered = reason.render(**{name: f"<{name}>" for name in fields})
    assert rendered
    for name in fields:
        assert f"<{name}>" in rendered
    assert "{" not in rendered and "}" not in rendered
