package increpair

import (
	"fmt"
	"math"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/cost"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// assertOneMinimal holds repr, a repair of d, to 1-minimality: no cell
// the repair changed can be set back to its value in d on its own while
// sigma stays satisfied. Each changed cell is set back with one Set on a
// copy of repr, a violation store subscribed to the copy is asked, and
// the cell is restored.
func assertOneMinimal(t *testing.T, d, repr *relation.Relation, sigma []*cfd.Normal) {
	t.Helper()
	work := repr.Clone()
	vs := cfd.NewVioStore(work, sigma)
	defer vs.Close()
	if !vs.Satisfied() {
		t.Fatal("the repair does not satisfy sigma")
	}
	attrs := d.Schema().Attrs()
	for _, old := range d.Tuples() {
		cur := work.Tuple(old.ID)
		if cur == nil {
			continue
		}
		for a, v := range old.Vals {
			if relation.StrictEq(v, cur.Vals[a]) {
				continue
			}
			repaired, err := work.Set(old.ID, a, v)
			if err != nil {
				t.Fatal(err)
			}
			if vs.Satisfied() {
				t.Fatalf("tuple %d's %s set back alone to %v keeps sigma satisfied: the repair is not 1-minimal", old.ID, attrs[a], v)
			}
			if _, err := work.Set(old.ID, a, repaired); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRepairOneMinimalAndCosted runs INCREPAIR's dirty-database Repair
// under each ordering, weighted and unweighted, and holds every repair to
// 1-minimality and its reported Cost to the cost model's own sum over
// the repair (within 1e-9 relative).
func TestRepairOneMinimalAndCosted(t *testing.T) {
	sizes := []int{500, 2500}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		for _, weighted := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				ds, err := gen.New(gen.Config{Size: size, NoiseRate: 0.05, Seed: seed, Weights: weighted})
				if err != nil {
					t.Fatal(err)
				}
				for _, ord := range []Ordering{Linear, ByViolations, ByWeight} {
					t.Run(fmt.Sprintf("n%d/w%t/seed%d/%s", size, weighted, seed, ord), func(t *testing.T) {
						res, err := Repair(ds.Dirty, ds.Sigma, &Options{Ordering: ord})
						if err != nil {
							t.Fatal(err)
						}
						if res.Changes == 0 {
							t.Fatal("the repair changed nothing on a dirty database")
						}
						assertOneMinimal(t, ds.Dirty, res.Repair, ds.Sigma)
						got, err := cost.Default().Repair(res.Repair, ds.Dirty)
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(got-res.Cost) > 1e-9*math.Max(math.Abs(got), math.Abs(res.Cost)) {
							t.Fatalf("Result.Cost %v, the cost model sums the repair to %v", res.Cost, got)
						}
					})
				}
			}
		}
	}
}
