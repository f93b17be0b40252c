"""End-to-end benchmark of the robustness analyzer (see ``run.py``)."""
