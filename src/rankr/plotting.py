"""Deterministic SVG charts of chamber-direction samples.

Only the rank-two simplex chart (n = 3) and the degenerate rank-one case
are supported.  A unit direction h maps to the simplex coordinates
(h1 - h2, h2 - h3), normalized to sum one, so the closed chamber becomes
the segment from (1, 0) to (0, 1).  Output bytes depend only on the
input samples (coordinates are rounded before formatting).
"""

import numpy as np

_SIZE = 640
_MARGIN = 60


def simplex_coords(dirs: np.ndarray) -> np.ndarray:
    """(h1-h2, h2-h3) normalized to the unit simplex, for n = 3 rows."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if dirs.shape[1] == 2:
        return np.tile([1.0, 0.0], (len(dirs), 1))
    if dirs.shape[1] != 3:
        raise ValueError("simplex chart supports n = 2 or n = 3 only")
    u = dirs[:, 0] - dirs[:, 1]
    v = dirs[:, 1] - dirs[:, 2]
    total = np.maximum(u + v, 1e-300)
    return np.column_stack([u / total, v / total])


def _to_canvas(coords: np.ndarray) -> np.ndarray:
    span = _SIZE - 2 * _MARGIN
    x = _MARGIN + coords[:, 0] * span
    y = _SIZE - _MARGIN - coords[:, 1] * span
    return np.column_stack([x, y])


# Every coordinate takes "%.3f", which rounds its exact binary value
# correctly to three decimals.
_CIRCLE = '<circle cx="%.3f" cy="%.3f" r="3" fill="#1f5fbf" fill-opacity="0.7"/>'
_CROSS = (
    '<path d="M %.3f %.3f L %.3f %.3f M %.3f %.3f L %.3f %.3f" '
    'stroke="#bf3f1f" stroke-width="1.5"/>'
)


def direction_chart(p_sample, cone_sample) -> str:
    """SVG overlay: directional sample as dots, limit-cone sample as
    crosses, drawn on the chamber segment of the simplex chart."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<text x="{_MARGIN}" y="30" font-family="monospace" '
        'font-size="16">directions vs limit cone</text>',
    ]
    # The closed chamber: the segment from (1,0) (wall h2=h3) to (0,1).
    ends = _to_canvas(np.array([[1.0, 0.0], [0.0, 1.0]]))
    parts.append(
        '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
        'stroke="#999999" stroke-width="1"/>' % tuple(ends.ravel())
    )
    for label, (cx, cy) in (("wall a2", ends[0]), ("wall a1", ends[1])):
        parts.append(
            '<text x="%.3f" y="%.3f" font-family="monospace" font-size="12" '
            'fill="#666666">%s</text>' % (cx + 6, cy + 14, label)
        )
    if len(p_sample):
        for x, y in _to_canvas(simplex_coords(p_sample)).tolist():
            parts.append(_CIRCLE % (x, y))
    if len(cone_sample):
        for x, y in _to_canvas(simplex_coords(cone_sample)).tolist():
            parts.append(
                _CROSS % (x - 4, y - 4, x + 4, y + 4, x - 4, y + 4, x + 4, y - 4)
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path, p_sample, cone_sample):
    data = direction_chart(p_sample, cone_sample).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return data
