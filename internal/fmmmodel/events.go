package fmmmodel

import "sfcacd/internal/acd"

// This file exposes the raw communication event streams behind the NFI
// and FFI accumulators, for consumers that need more than hop counts —
// notably the contention extension, which routes every event over
// physical links. Both visitors walk the assignment's key-space index
// serially. Each symmetric relation is enumerated once per unordered
// pair and emitted in both directions, so the multiset of ordered
// events is exact but their order is not the per-particle order.

// VisitNFIPairs calls fn for every ordered near-field communication
// (src and dst processor ranks). Pairs on the same processor are
// included (src == dst), mirroring the accumulator.
func VisitNFIPairs(a *acd.Assignment, opts NFIOptions, fn func(src, dst int32)) {
	opts.normalize()
	ix := a.KeyIndex()
	ix.VisitUpperNeighborPairs(0, ix.N(), opts.Radius, opts.Metric, func(mine, r int32) {
		fn(mine, r)
		fn(r, mine)
	})
}

// VisitFFIPairs calls fn for every far-field communication: once per
// interpolation link (child representative -> parent representative),
// once per anterpolation link (the reverse), and once per
// interaction-list exchange in each direction.
func VisitFFIPairs(a *acd.Assignment, fn func(src, dst int32)) {
	ix := a.KeyIndex()
	for l := ix.Order; l >= 1; l-- {
		ix.VisitParentLinks(l, 0, ix.LevelLen(l), func(parent, rep int32) {
			fn(rep, parent) // interpolation
			fn(parent, rep) // anterpolation
		})
	}
	for l := uint(2); l <= ix.Order; l++ {
		ix.VisitUpperILPairs(l, 0, ix.LevelLen(l-1), func(rep, other int32) {
			fn(rep, other)
			fn(other, rep)
		})
	}
}
