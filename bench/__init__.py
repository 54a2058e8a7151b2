"""The repo's end-to-end sweep benchmark (see bench/README.md)."""
