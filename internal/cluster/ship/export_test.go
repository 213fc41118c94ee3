package ship

import "cfdclean/internal/increpair"

// Session exposes the replica's live session for reads and for
// promotion; nil before the first snapshot install.
func (r *Replica) Session() *increpair.Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sess
}

// Stats reports how the replica got to its current state.
func (r *Replica) Stats() (applied, skipped, installs uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied, r.skipped, r.installs
}
