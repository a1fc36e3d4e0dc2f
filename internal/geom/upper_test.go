package geom

// visitUpperNeighborhood calls fn for every grid point q with
// m.Dist(p, q) <= r that follows p in row-major order (greater Y, or
// equal Y and greater X). The near-field relation is symmetric, so the
// upper visits of all points partition the full neighborhood visits
// into unordered pairs: every pair {p, q} within radius r is seen
// exactly once, from its row-major-lower endpoint. Callers that need
// the ordered stream count each visit twice. It is the reference the
// key-space index's near-field enumeration (internal/keynav) mirrors.
func visitUpperNeighborhood(p Point, r int, m Metric, side uint32, fn func(q Point)) {
	if r <= 0 {
		return
	}
	for dy := 0; dy <= r; dy++ {
		y := int(p.Y) + dy
		if y >= int(side) {
			break
		}
		span := r
		if m == MetricManhattan {
			span = r - dy
		}
		lo := -span
		if dy == 0 {
			lo = 1
		}
		for dx := lo; dx <= span; dx++ {
			x := int(p.X) + dx
			if x < 0 || x >= int(side) {
				continue
			}
			fn(Point{X: uint32(x), Y: uint32(y)})
		}
	}
}
