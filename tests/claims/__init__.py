"""The paper's claims as tier-1 tests, one module per artefact.

``pytest tests/claims -rP`` prints the paper-vs-measured rows.
"""
