import os

from hypothesis import settings

# A derandomised profile: each property test draws the same examples on
# every run.  GitHub Actions sets CI, so a property test that fails there
# fails the same way locally under CI=1.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    tr = terminalreporter
    rows = []
    for status in ("passed", "failed", "error", "xfailed", "xpassed", "skipped"):
        for rep in tr.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", "call") == "call":
                label = {
                    "passed": "PASS",
                    "failed": "FAIL",
                    "error": "ERROR",
                    "xfailed": "FAIL (expected, documented)",
                    "xpassed": "UNEXPECTED PASS",
                    "skipped": "SKIPPED",
                }[status]
                rows.append((nodeid.split("::")[-1], label))
    if rows:
        tr.section("acceptance criteria")
        for name, label in sorted(rows):
            tr.write_line(f"{name}: {label}")
