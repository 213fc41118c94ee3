package ship

import (
	"hash/fnv"
	"sort"
)

// ringVnodes is how many points each peer owns on the hash circle.
// Virtual nodes smooth the key distribution: with a handful of physical
// peers a single point each would routinely give one node most of the
// keyspace.
const ringVnodes = 64

// Ring is a consistent-hash ring over a static peer list. Session names
// hash onto a circle of peer points; the primary for a name is the peer
// owning the first point at or after the name's hash, and the follower
// is the next *distinct* peer clockwise — so adding or removing one
// peer re-places only the names adjacent to its points, and a node
// restarted with a new -peers list routes most names as before.
type Ring struct {
	peers  []string
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing builds a ring over peers (deduplicated; order-insensitive —
// placement depends only on the peer addresses themselves, so every
// node given the same -peers list computes the same ownership).
func NewRing(peers []string) *Ring {
	seen := make(map[string]bool, len(peers))
	r := &Ring{}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
	}
	sort.Strings(r.peers)
	for _, p := range r.peers {
		for i := 0; i < ringVnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(p, i), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.peer < b.peer
	})
	return r
}

// Peers returns the ring's member list (sorted, deduplicated).
func (r *Ring) Peers() []string { return r.peers }

// Primary returns the peer owning name, or "" on an empty ring.
func (r *Ring) Primary(name string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.owner(name)].peer
}

// Follower returns the peer that replicates name — the first distinct
// peer clockwise from the primary's point — or "" when the ring has
// fewer than two peers.
func (r *Ring) Follower(name string) string {
	if len(r.peers) < 2 {
		return ""
	}
	i := r.owner(name)
	primary := r.points[i].peer
	for k := 1; k < len(r.points); k++ {
		if p := r.points[(i+k)%len(r.points)].peer; p != primary {
			return p
		}
	}
	return ""
}

// owner returns the index of the first point at or after name's hash,
// wrapping around the circle.
func (r *Ring) owner(name string) int {
	h := ringHash(name, -1)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

func ringHash(s string, vnode int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	if vnode >= 0 {
		h.Write([]byte{'#', byte(vnode), byte(vnode >> 8)})
	}
	return fmix64(h.Sum64())
}

// fmix64 is the 64-bit avalanche finalizer from MurmurHash3. Raw
// FNV-64a leaves similar keys ("session-1", "session-2", ...)
// clustered in a narrow band of the circle, which hands one peer
// nearly the whole keyspace; the finalizer spreads them uniformly.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
