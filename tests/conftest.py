"""Suite-wide fixtures.

The checkout write guard: tests write only under ``tmp_path`` (and the
stepper cache in the user's home), never into the source tree.  A
session-scoped check lists the checkout's files before and after the
run and fails the session naming every path a test created, changed
or removed.
"""

import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Directories of tool byproducts the check does not look into
#: (``.hypothesis`` is the hypothesis plugin's example and constants
#: database, written to the working directory on every run).
IGNORED_DIRS = frozenset({".git", "__pycache__", ".pytest_cache",
                          ".hypothesis"})


def checkout_files(root=ROOT):
    """``{relative path: (size, mtime_ns)}`` for every file under
    ``root``, skipping :data:`IGNORED_DIRS`."""
    files = {}
    for directory, subdirs, names in os.walk(root):
        subdirs[:] = [name for name in subdirs if name not in IGNORED_DIRS]
        for name in names:
            path = os.path.join(directory, name)
            try:
                stat = os.lstat(path)
            except OSError:
                continue  # vanished mid-walk
            files[os.path.relpath(path, root)] = (stat.st_size,
                                                  stat.st_mtime_ns)
    return files


@pytest.fixture(scope="session", autouse=True)
def checkout_write_guard():
    before = checkout_files()
    yield
    after = checkout_files()
    problems = [f"created {path}" for path in sorted(set(after) - set(before))]
    problems += [f"changed {path}" for path in sorted(set(after) & set(before))
                 if after[path] != before[path]]
    problems += [f"removed {path}" for path in sorted(set(before) - set(after))]
    if problems:
        pytest.fail("tests wrote into the checkout (use tmp_path):\n  "
                    + "\n  ".join(problems), pytrace=False)
