"""One-command planner benchmark (see README.md in this directory)."""
