"""End-to-end benchmark of the publish -> commit -> read path (see README.md)."""
