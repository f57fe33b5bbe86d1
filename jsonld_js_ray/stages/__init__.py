"""Ray Data stages: batch transforms for the KG pipeline."""
