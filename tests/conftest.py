"""Import fpnn before any test module loads numpy, so the suite runs with the
package's BLAS thread default (see ``fpnn/__init__.py``)."""

import fpnn  # noqa: F401
