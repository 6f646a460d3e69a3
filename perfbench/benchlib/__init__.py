"""Pure helpers of perfbench/run.py: estimators, row checks, self time."""
