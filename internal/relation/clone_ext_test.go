package relation_test

import (
	"strconv"
	"testing"
)

// BenchmarkClone times Relation.Clone, which every BatchRepair and every
// new session pays once, on a generated database of 500 and of 5 000
// tuples: the tuples, the id table, the dictionary and the active domains.
func BenchmarkClone(b *testing.B) {
	for _, n := range []int{500, 5000} {
		ds := dataset71(b, n, 1)
		b.Run("tuples="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ds.Dirty.Clone()
			}
		})
	}
}
