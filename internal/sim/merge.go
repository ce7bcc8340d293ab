package sim

// Stats merging: sharded replay runs one independent machine (and so one
// Stats) per trace segment, then folds every shard's registry into a single
// one. All simulation stats are either sums (counters, histogram counts and
// buckets) or order-free extrema (histogram min/max), so the merge is
// commutative and associative — but ShardedReplay still merges in segment
// order, which keeps the operation trivially deterministic without relying
// on that property.

// MergeFrom folds every counter and histogram of other into s, registering
// names s has not seen. Counters add; histograms merge bucket-wise. other
// is not modified. Counter-vs-histogram name clashes panic exactly as they
// do at registration time.
func (s *Stats) MergeFrom(other *Stats) {
	for _, e := range other.stats {
		if e.c != nil {
			s.Counter(e.c.name).v += e.c.v
		} else {
			s.Hist(e.h.name).MergeFrom(e.h)
		}
	}
}

// MergeFrom folds histogram o into h: counts, sums and buckets add, the
// min/max range widens to cover both. o is not modified.
//
// A zero-sample side carries no extrema: its min/max fields are the zero
// value, not observations. Merging an empty o must be a no-op (early
// return — otherwise its min==0 would clamp h's minimum), and merging into
// an empty h must adopt o's minimum unconditionally (the h.count == 0 arm
// — h.min == 0 is "no samples", not "observed 0"). Max needs no guard:
// maxima only widen upward and 0 never wins against a real observation.
func (h *Histogram) MergeFrom(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}
