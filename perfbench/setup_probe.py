"""Time one cold set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <src-dir> <n> <seed>

A cold set-up is what a process pays before its first operation: import
of the entry points, codec registration and one ``TrustedSetup`` for
``n`` parties.  ``run.py`` runs this several times per run and reports
the median as ``setup_s``.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    src, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, src)
    import repro  # noqa: F401  (run_adkg)
    import repro.service.membership  # noqa: F401  (run_churn)
    from repro.crypto.keys import TrustedSetup
    from repro.net.codec import registered_types

    registered_types()
    TrustedSetup.generate(n, seed=seed)
    print(time.perf_counter() - _STARTED)


if __name__ == "__main__":
    main()
