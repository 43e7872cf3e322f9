"""Direct computation of the topological counters of a digital object.

The counters are: p pixels, v distinct corner lattice points, c0/c1 connected
components under 0-/1-adjacency, h proper holes (finite 1-components of the
complement), b 2x2 blocks, and t tunnels.  A tunnel is a lattice point whose
incident pixels are exactly a diagonal pair: two pixels meeting only at that
point.  The counters are tied together by

    t = v - 2(p + c - h) + b        (c = number of 0-components)

which ``analyze`` evaluates alongside the directly counted t as a built-in
consistency check.  With v, b, t and p from the 2x2 census, the identity
says c0 - h = (v + b - t) / 2 - p, Gray's census Euler number
E8 = (Q1 - Q3 - 2 QD) / 4 (Q1, Q3, QD: windows holding one pixel, three
pixels, a diagonal pair), so ``consistent`` checks the labelled c0 - h
against the census.  It cannot see c1, nor an error moving c0 and h alike;
so h is labelled, never derived from the census, which would void the check.

Every counter reads pixels the same way: ``rasterize`` pads the object's
squeezed raster (see ``grid.DigitalObject``) by one empty cell on each
side.  v, b and t come from a census of the mask's 2x2 windows (Gray 1971),
c0 and c1 from labelling the mask, and h from labelling its complement.  In
the squeezed raster every run of two or more fully empty rows or columns is
a single empty line.  That changes no counter: one empty line still keeps
corners and 8-neighbours apart, and a fully empty line inside the padded box
belongs to the outer complement region, so no hole touches it (Kong and
Rosenfeld 1989).  Memory is therefore proportional to the squeezed box, set
by the number of distinct occupied rows and columns rather than by their
distance; an object whose squeezed box exceeds ``MAX_RASTER_CELLS`` cannot
be built.

``analyze_batch`` runs the same engine over a stack of masks: one census of
all padded slices, then three ``ndi.label`` calls with ``analyze``'s
structures on the slices laid end to end as one 2-D image, whose padding
rows keep each slice apart.  The exhaustive sweeps of ``pixtopo.verify`` use
it; ``analyze`` stays separate, as a stack of one pays for a per-slice census.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import List, Optional, Tuple

import numpy as np

from .grid import Adjacency, DigitalObject, _check_raster_size


_NI_LABEL = "scipy.ndimage._ni_label"


class _LazyNdimage:
    """Stands in for ``scipy.ndimage``, of which pixtopo uses only ``label``.

    Importing all of scipy.ndimage takes about 0.35 s and 26.5 MB, more than
    the rest of the package and more than a warm ``pixtopo analyze`` of a
    1000x1000 image; its labelling is one compiled extension,
    ``scipy.ndimage._ni_label``, which loads in 15-30 ms.  So each call of
    ``label(image, structure)`` looks that extension up in ``sys.modules``,
    loading it alone (``_load_ni_label``) the first time, and calls its
    ``_label`` directly: for pixtopo's inputs (2-D bool images, 3x3 bool
    structures, far fewer than 2**31 cells) that is all the work
    ``scipy.ndimage.label`` does.  ``gen``, ``--help``, usage errors and
    Tracker-only use never label and load nothing.  ``label`` is the only
    attribute.  ``ndi`` stays a module attribute, so a tracer or a test can
    still replace it.
    """

    def label(self, image, structure):
        core = (sys.modules.get(_NI_LABEL) or _load_ni_label())._label
        out = np.empty(image.shape, np.int32)
        return out, core(image, structure, out)


def _load_ni_label():
    """Load ``scipy.ndimage._ni_label`` alone, as ``import`` would.

    The module is registered under its own name, so a later ``import
    scipy.ndimage`` reuses it.  Without scipy, or in a scipy without that
    extension, this raises ModuleNotFoundError naming what is missing.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    finder = FileFinder(os.path.join(scipy.submodule_search_locations[0], "ndimage"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(_NI_LABEL)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {_NI_LABEL!r}", name=_NI_LABEL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NI_LABEL] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_NI_LABEL]
        raise
    return module


ndi = _LazyNdimage()

_STRUCT4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCT8 = np.ones((3, 3), dtype=bool)

# Occupancy bits of the four pixel slots around a lattice point, seen from the
# point: SW=1, SE=2, NW=4, NE=8.  A point is a tunnel iff its mask is one of
# the two diagonal pairs, and the center of a 2-block iff all four are set.
_TUNNEL_MASKS = (0b0110, 0b1001)
_BLOCK_MASK = 0b1111


@dataclass(frozen=True)
class InvariantReport:
    """All counters of one object plus the formula cross-check.

    ``t_formula`` is v - 2(p + c0 - h) + b; ``consistent`` records whether it
    agrees with the directly counted ``t_direct``.  ``c1`` is diagnostic only
    and may be None (incremental snapshots do not track it).
    """

    p: int
    v: int
    c0: int
    c1: Optional[int]
    h: int
    b: int
    t_direct: int
    t_formula: int
    consistent: bool


# ---------------------------------------------------------------------------
# the raster

def rasterize(obj: DigitalObject) -> np.ndarray:
    """The object's squeezed raster padded by one empty cell per side.

    The one engine: every counter and curve predicate reads pixels only
    through this mask.  Rows run along y and columns along x, both
    increasing; a run of two or more empty rows or columns of the object is
    one empty line (see ``grid.DigitalObject``), which leaves every counter
    unchanged.  The stored mask is copied into a zeroed buffer with one
    slice assignment.
    """
    mask = obj._mask
    height, width = mask.shape
    padded = np.zeros((height + 2, width + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    return padded


def _census(mask: np.ndarray, axis: Optional[Tuple[int, int]] = None):
    """Vertices, 2x2 blocks and tunnels of padded masks along the last two axes.

    Bit-quad census (Gray 1971): each 2x2 window of a mask is the corner
    mask of the lattice point at its center.  ``axis=None`` counts over the
    whole array; ``axis=(1, 2)`` counts per slice of a stack.  Kept out of
    the analyses so its temporaries are freed before the labellings
    allocate theirs.
    """
    m = mask.view(np.uint8)
    pairs = m[..., :-1] + 2 * m[..., 1:]
    codes = pairs[..., :-1, :] + 4 * pairs[..., 1:, :]
    # count_nonzero, unlike bincount, makes no intp copy of the codes
    v = np.count_nonzero(codes, axis=axis)
    b = np.count_nonzero(codes == _BLOCK_MASK, axis=axis)
    t = (np.count_nonzero(codes == _TUNNEL_MASKS[0], axis=axis)
         + np.count_nonzero(codes == _TUNNEL_MASKS[1], axis=axis))
    return v, b, t


def _vbt(mask: np.ndarray) -> Tuple[int, int, int]:
    """Vertices, 2x2 blocks and tunnels of one padded mask."""
    v, b, t = _census(mask)
    return int(v), int(b), int(t)


def _count_labels(image: np.ndarray, structure: np.ndarray) -> int:
    return int(ndi.label(image, structure=structure)[1])


# ---------------------------------------------------------------------------
# public counters

def count_vertices(obj: DigitalObject) -> int:
    """Number of distinct lattice points occurring as pixel corners."""
    return _vbt(rasterize(obj))[0]


def count_blocks(obj: DigitalObject) -> int:
    """Number of complete 2x2 squares of pixels."""
    return _vbt(rasterize(obj))[1]


def count_tunnels_direct(obj: DigitalObject) -> int:
    """Number of lattice points incident to exactly one diagonal pixel pair."""
    return _vbt(rasterize(obj))[2]


def count_components(obj: DigitalObject, adjacency: Adjacency = Adjacency.ZERO) -> int:
    """Number of maximal connected subsets under the given adjacency.

    ``adjacency`` may be 0 or 1; any other value raises ValueError.
    """
    zero = Adjacency(adjacency) is Adjacency.ZERO
    return _count_labels(rasterize(obj), _STRUCT8 if zero else _STRUCT4)


def count_holes(obj: DigitalObject) -> int:
    """Number of proper holes: finite 1-components of the complement.

    The complement is labelled within the padded raster; the single component
    touching the padding is the improper region and is never counted.
    """
    return _count_labels(~rasterize(obj), _STRUCT4) - 1


def tunnels_by_formula(p: int, v: int, c: int, h: int, b: int) -> int:
    """Evaluate v - 2(p + c - h) + b.

    Signed on purpose: a negative result from counter inputs signals a bug
    rather than a valid tunnel count.
    """
    return v - 2 * (p + c - h) + b


def analyze(obj: DigitalObject) -> InvariantReport:
    """All counters of the object, plus the formula evaluation and verdict."""
    return _analyze_raster(len(obj), rasterize(obj))


def _analyze_raster(p: int, mask: np.ndarray) -> InvariantReport:
    """``analyze`` of an object of p pixels whose padded raster is ``mask``.

    ``curves.curve_report`` calls it too, so the mask it reads degrees from
    is the one the report was counted on.
    """
    v, b, t = _vbt(mask)
    c0 = _count_labels(mask, _STRUCT8)
    c1 = _count_labels(mask, _STRUCT4)
    h = _count_labels(~mask, _STRUCT4) - 1
    tf = tunnels_by_formula(p, v, c0, h, b)
    return InvariantReport(p, v, c0, c1, h, b, t, tf, t == tf)


def _stack_counts(stack: np.ndarray, structure: np.ndarray, start: int = 0) -> np.ndarray:
    """Components per slice of a stack of padded masks, labelled in one call.

    The slices are laid end to end as one 2-D image, a view of the stack,
    and their padding rows keep them apart.  ``ndi.label`` numbers in scan
    order, so the running maximum of the per-slice largest label counts the
    components so far, also across a slice with none.  ``start`` is the
    largest label before the first slice: in a complement the outer regions
    of all slices join through the padding into label 1.
    """
    labels = ndi.label(stack.reshape(-1, stack.shape[-1]), structure=structure)[0]
    top = labels.reshape(len(stack), -1).max(axis=1)
    return np.diff(np.maximum.accumulate(top), prepend=start)


def analyze_batch(masks: np.ndarray) -> List[InvariantReport]:
    """The report of every slice of an (N, H, W) stack of masks.

    Slice k, read as booleans, is the object whose pixel (col, row) is set
    where ``masks[k, row, col]`` is, and its report equals ``analyze`` of
    ``DigitalObject.from_mask(masks[k])``.  The slices are copied into one
    zeroed (N, H + 2, W + 2) buffer, so each gets its empty border; one
    census gives v, b and t of every slice, and three labellings of the
    slices laid end to end, with ``analyze``'s structures, give c0, c1 and
    h.  Memory grows with the stack, so callers with many masks hand them
    over in chunks.  Raises ValueError unless the input is 3-D, and, before
    allocating, when N * H * W exceeds MAX_RASTER_CELLS.
    """
    masks = np.asarray(masks)
    if masks.ndim != 3:
        raise ValueError(f"masks must be a 3-D stack, got {masks.ndim}-D")
    n, height, width = masks.shape
    _check_raster_size(width, height, n)
    if n == 0:
        return []
    stack = np.zeros((n, height + 2, width + 2), dtype=bool)
    # unlike a plain copy, the comparison stores 0 or 1 in every byte
    np.not_equal(masks, False, out=stack[:, 1:-1, 1:-1])
    p = np.count_nonzero(stack, axis=(1, 2))
    v, b, t = _census(stack, axis=(1, 2))
    c0 = _stack_counts(stack, _STRUCT8)
    c1 = _stack_counts(stack, _STRUCT4)
    h = _stack_counts(~stack, _STRUCT4, start=1)
    tf = tunnels_by_formula(p, v, c0, h, b)
    columns = (p, v, c0, c1, h, b, t, tf, t == tf)
    return [InvariantReport(*row) for row in zip(*(col.tolist() for col in columns))]


def is_tunnel_free(obj: DigitalObject) -> bool:
    """True when the object has no tunnels at all."""
    return count_tunnels_direct(obj) == 0


def is_k_separating(m: DigitalObject, s: DigitalObject, adjacency: Adjacency) -> bool:
    """True when removing m from s leaves s disconnected under the adjacency.

    Requires m to be a subset of s; an empty remainder counts as connected.
    """
    removed, pixels = m.pixels, s.pixels
    if not removed <= pixels:
        raise ValueError("m must be a subset of s")
    return count_components(DigitalObject(pixels - removed), adjacency) >= 2


def has_separating_tunnels(obj: DigitalObject) -> bool:
    """True when some complement regions merge under 0- but not 1-adjacency.

    Computed on the complement within the padded raster: strictly
    more 1-components than 0-components means a hole escapes diagonally,
    i.e. the object separates under 1- but not 0-adjacency.  This is the
    region-separation notion of a tunnel; it implies count_tunnels_direct > 0
    but not conversely (a lone diagonal pair has a countable tunnel point yet
    separates nothing).
    """
    comp = ~rasterize(obj)
    return _count_labels(comp, _STRUCT4) > _count_labels(comp, _STRUCT8)
