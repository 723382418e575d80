"""Known-bad fixture: ``print()`` outside the CLI/dashboard (OBL303).

Library code returns its report text and the CLI prints it, so stdout
stays machine-readable.
"""


def report(lines: list[str]) -> None:
    for line in lines:
        print(line)
