package eval

// InsertBatch applies a batch of base-stream insertions as one
// semi-naive delta: every batch tuple enters the database up front, then
// a single shared cascade queue propagates all of them. Compared to a
// fold over Insert, the batched path probes each rule's indexes once per
// batch tuple against the full post-batch state instead of replaying the
// intermediate states, so a large delta (the differential harness loads
// the oracle's whole surviving base set this way) costs one index-probe
// pass per predicate.
//
// The batched path is only sound under SetOfDerivations: a join between
// two batch tuples is discovered once per pinned occurrence, and the
// derivation-key set absorbs the duplicates (Counting would double-count
// the multiplicity). Other modes fall back to the sequential fold.
//
// The final database and derivation sets equal the sequential fold's for
// any batch order (checks run against the current database state, so a
// retraction that finds no derivation to remove corresponds exactly to
// an addition the now-visible batch tuple already blocked). The returned
// Changes are the net visible transitions in application order, which
// can be fewer than the fold's: a derived tuple that a later batch tuple
// retracts within the same batch may never surface at all.
func (m *Maintainer) InsertBatch(ts []Tuple) ([]Change, error) {
	if m.mode != SetOfDerivations {
		var out []Change
		for _, t := range ts {
			ch, err := m.Insert(t)
			if err != nil {
				return out, err
			}
			out = append(out, ch...)
		}
		return out, nil
	}
	queue := make([]Change, 0, len(ts))
	for _, t := range ts {
		if m.db.Insert(t) { // duplicate base insertions are no-ops
			queue = append(queue, Change{Tuple: t, Insert: true})
		}
	}
	return m.cascade(queue)
}
