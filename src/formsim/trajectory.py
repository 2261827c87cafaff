"""The record of a run: per-sample summaries of its recorded positions.

A run keeps, for every recorded sample, the few numbers that the
steady-state fit, the decay fit, the verify checks and the CSV's
potential read, and no positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .motion import ReferenceShape
from .rigidity import control_kernel

# Elements per post-processing temporary, about 1 MiB of float64 at any n.
_CHUNK_ELEMENTS = 1 << 17


def _chunks(stop: int, width: int):
    """Row slices up to stop of an array width elements wide, each about
    _CHUNK_ELEMENTS elements."""
    step = max(1, _CHUNK_ELEMENTS // width)
    for lo in range(0, stop, step):
        yield slice(lo, min(lo + step, stop))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled record of one run against its reference shape.

    scale holds the factor 1 + s(t) per sample, so the scheduled
    distances of sample j are scale[j] * reference.distances.  A run
    keeps no positions: record reduces each sample to the numbers its
    readers use, with e_k the length of edge k minus its scheduled
    distance and d_k its reference distance:

    - squared_errors, the sum of e_k ** 2 (error_norms is its root);
    - peak_errors, the largest |e_k|, and peak_relative_errors, the
      largest |e_k| / d_k;
    - centroids (samples, dim), the mean agent position;
    - covariances (samples, dim, dim), the Kabsch alignment covariance
      of the centered agents against the centered reference shape;
    - length_ratios, the mean of length_k / d_k, summed in edge order.
    """

    times: np.ndarray
    scale: np.ndarray
    reference: ReferenceShape
    squared_errors: np.ndarray
    peak_errors: np.ndarray
    peak_relative_errors: np.ndarray
    centroids: np.ndarray
    covariances: np.ndarray
    length_ratios: np.ndarray

    @classmethod
    def allocate(cls, times: np.ndarray, scale: np.ndarray,
                 reference: ReferenceShape) -> Trajectory:
        """A run of the given samples whose summaries record fills in."""
        samples, m = times.size, reference.dim
        return cls(times, scale, reference, np.empty(samples), np.empty(samples),
                   np.empty(samples), np.empty((samples, m)), np.empty((samples, m, m)),
                   np.empty(samples))

    @property
    def sample_count(self) -> int:
        return self.times.size

    def record(self, rows: slice, positions: np.ndarray) -> None:
        """Summarize positions (samples, vertex_count * dim), the samples
        rows picks, one chunk of about 1 MiB per temporary at a time.

        Every summary of a sample comes from that sample alone, so the
        chunks do not move a bit of it.
        """
        ref = self.reference
        # The gather's temporaries are dim * E wide.
        for part in _chunks(positions.shape[0], ref.dim * ref.distances.size):
            self._record_chunk(slice(rows.start + part.start, rows.start + part.stop),
                               positions[part])

    def _record_chunk(self, rows: slice, positions: np.ndarray) -> None:
        ref = self.reference
        lengths = control_kernel(ref.graph, ref.dim).lengths(positions)
        errors = lengths - self.scale[rows, None] * ref.distances
        self.squared_errors[rows] = np.add.reduce(errors * errors, axis=1)
        np.abs(errors, out=errors)
        self.peak_errors[rows] = errors.max(axis=1)
        self.peak_relative_errors[rows] = (errors / ref.distances).max(axis=1)
        # A running sum adds the edges in edge order at any row count.
        ratios = np.add.accumulate(lengths / ref.distances, axis=1)
        self.length_ratios[rows] = ratios[:, -1] / ratios.shape[1]
        pts = positions.reshape(positions.shape[0], -1, ref.dim)
        centroids = pts.mean(axis=1, keepdims=True)
        self.centroids[rows] = centroids[:, 0]
        np.matmul((pts - centroids).transpose(0, 2, 1), ref.centered_points(),
                  out=self.covariances[rows])

    def window(self, rows: slice) -> Trajectory:
        """The samples rows picks, as views."""
        return Trajectory(self.times[rows], self.scale[rows], self.reference,
                          *(getattr(self, name)[rows] for name in _SUMMARIES))

    @cached_property
    def error_norms(self) -> np.ndarray:
        return np.sqrt(self.squared_errors)


_SUMMARIES = ("squared_errors", "peak_errors", "peak_relative_errors", "centroids",
              "covariances", "length_ratios")
