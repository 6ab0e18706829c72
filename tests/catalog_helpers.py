"""Sample sets of `liemult.catalog` entries that only the tests use."""

from fractions import Fraction

from liemult.catalog import CatalogEntry
from liemult.verify import verify_samples


def full_samples(entry: CatalogEntry) -> tuple[Fraction | None, ...]:
    """Every sample the package draws for an entry, ascending: the harness's
    `verify_samples` and the catalog's `sample_values`; (None,) without a
    parameter."""
    if entry.param is None:
        return (None,)
    return tuple(sorted({*verify_samples(entry), *entry.sample_values()}))
