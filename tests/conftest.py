"""Shared test plumbing.

The acceptance tests append one line per criterion to `acceptance_lines`;
the terminal-summary hook prints them at the end of the run so the
verdicts are visible in plain `pytest` output without -s.

`reference_amount` is the information amount computed from the paper's
definition, independently of `infomargin.info`, for tests to compare with.
"""

import numpy as np

acceptance_lines: list[str] = []


def reference_amount(cov, m):
    """1/2 * log2 det(I + Sigma'), where Sigma' is the symmetric `cov` rebuilt
    from `eigh` with its eigenvalues lifted to (1 - sqrt(p/m))^2."""
    p = cov.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    shrunk = (eigvecs * np.maximum(eigvals, (1.0 - np.sqrt(p / m)) ** 2)) @ eigvecs.T
    sign, logdet = np.linalg.slogdet(np.eye(p) + shrunk)
    assert sign > 0
    return float(logdet / (2.0 * np.log(2.0)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
