package relation

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// TestTuplesPhysicalOrder pins the order Tuples reports: Delete moves the
// last tuple into the freed slot, so after deleting the first of three
// tuples the third sits at position 0, and Tuple still finds every live one.
func TestTuplesPhysicalOrder(t *testing.T) {
	r := New(MustSchema("r", "a"))
	var ts []*Tuple
	for _, v := range []string{"x", "y", "z"} {
		tp, err := r.InsertRow(v)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tp)
	}
	if !r.Delete(ts[0].ID) {
		t.Fatal("Delete of the first tuple failed")
	}
	got := r.Tuples()
	if len(got) != 2 || got[0] != ts[2] || got[1] != ts[1] {
		t.Fatalf("Tuples after deleting the first of three = %v, want [%v %v]", got, ts[2], ts[1])
	}
	for i, tp := range got {
		if r.Tuple(tp.ID) != tp {
			t.Errorf("Tuple(%d) does not find the tuple at position %d", tp.ID, i)
		}
	}
	if r.Tuple(ts[0].ID) != nil {
		t.Error("the deleted tuple is still found")
	}
}

// TestRelationIDOverflow walks the ids the table does not cover: ids ≤ 0
// and ids past 4·(Size()+1) + 4096 live in the overflow map, and a growth
// that reaches an overflow id moves it into the table.
func TestRelationIDOverflow(t *testing.T) {
	r := New(MustSchema("r", "a"))
	for _, id := range []TupleID{-7, 5000} {
		r.MustInsert(NewTuple(id, "x"))
	}
	if len(r.over) != 2 || len(r.slots) != 0 {
		t.Fatalf("ids -7 and 5000 in an empty relation: %d in overflow, table of %d; want 2 and 0", len(r.over), len(r.slots))
	}
	// The auto ids that follow 5000 (5001, 5002, …) are coverable from
	// about 300 tuples on; the first of them that is grows the table past
	// all of them and moves them in.
	for r.Size() < 400 {
		r.MustInsert(NewTuple(0, "y"))
	}
	if _, ok := r.over[-7]; !ok || len(r.over) != 1 {
		t.Errorf("after the growth the overflow map holds %d ids; want only -7", len(r.over))
	}
	for _, tp := range r.Tuples() {
		if r.Tuple(tp.ID) != tp {
			t.Errorf("Tuple(%d) lost after the growth", tp.ID)
		}
	}
	if !r.Delete(-7) || r.Tuple(-7) != nil || len(r.over) != 0 {
		t.Errorf("Delete(-7) left %d ids in the overflow map", len(r.over))
	}
	c := r.Clone()
	for i, tp := range r.Tuples() {
		if ct := c.Tuple(tp.ID); ct != c.Tuples()[i] || ct.ID != tp.ID {
			t.Fatalf("clone does not find tuple %d at position %d", tp.ID, i)
		}
	}
}

// TestRelationIDIndexBudget pins what finding tuples by id costs: 100 000
// auto-id tuples hold at most 8 B each in the id index (a map from id to
// position took more than 20), and one far-off explicit id in a 10-tuple
// relation allocates no table sized by that id.
func TestRelationIDIndexBudget(t *testing.T) {
	const n = 100_000
	r := New(MustSchema("r", "a"))
	r.MustInsert(NewTuple(0, "x"))
	// Probes of r's dictionary carry their ids, so inserting them interns
	// nothing: what the inserts keep is the tuple slice and the id index.
	ts := make([]*Tuple, n)
	for i := range ts {
		ts[i] = NewTuple(0, "x").Probe(r.Dict())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, tp := range ts {
		r.MustInsert(tp)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	index := kept - int64(cap(r.Tuples()))*8
	runtime.KeepAlive(ts)
	if per := float64(index) / n; per > 8 {
		t.Errorf("the id index of %d tuples keeps %d B, %.1f B a tuple; budget 8", n, index, per)
	} else {
		t.Logf("the id index of %d tuples keeps %d B, %.1f B a tuple", n, index, per)
	}
	for _, tp := range ts {
		if r.Tuple(tp.ID) != tp {
			t.Fatalf("Tuple(%d) not found", tp.ID)
		}
	}

	const budget = 16 << 10
	if b := allocBytes(func() {
		r := New(MustSchema("r", "a"))
		for i := range 10 {
			id := TupleID(0)
			if i == 4 {
				id = 1 << 40
			}
			r.MustInsert(NewTuple(id, "x"))
		}
	}); b > budget {
		t.Errorf("a 10-tuple relation holding id 1<<40 allocates %d B, budget %d B", b, budget)
	}
}

// BenchmarkRelationTuple times Tuple over 6 000 dense ids (the relation's
// own, 1…6000) and over 6 000 sparse ones (explicit ids 2^20 apart).
func BenchmarkRelationTuple(b *testing.B) {
	const n = 6000
	for _, tc := range []struct {
		name string
		id   func(i int) TupleID
	}{
		{"dense", func(int) TupleID { return 0 }},
		{"sparse", func(i int) TupleID { return TupleID(i+1) << 20 }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := New(MustSchema("r", "a"))
			ids := make([]TupleID, n)
			for i := range ids {
				tp := NewTuple(tc.id(i), fmt.Sprint(i))
				r.MustInsert(tp)
				ids[i] = tp.ID
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r.Tuple(ids[i%n]) == nil {
					b.Fatal("lost a tuple")
				}
			}
		})
	}
}

// FuzzRelationIDs drives a relation through byte-chosen inserts (auto ids;
// explicit dense, negative, huge and just-uncoverable ids), deletes, sets,
// clones and pins, and after every step holds it to a plain map from id to
// value: Tuple for every id ever used, Size, and every tuple at the
// position the index records.
func FuzzRelationIDs(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 3, 4, 0, 5, 1})
	// negative and huge ids; under a pin an insert, a delete twice, a set
	f.Add([]byte{2, 9, 3, 1, 0, 0, 7, 0, 0, 0, 4, 1, 4, 1, 5, 0, 7, 0, 6, 0})
	// a just-uncoverable id, then auto ids until the table grows to it
	f.Add([]byte{8, 3, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 7, 0, 4, 2, 5, 1, 7, 0, 6, 0})
	// uncoverable ids deleted under a pin, then a clone restarts the ids
	f.Add([]byte("008080800090\"1\"08010"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := New(MustSchema("r", "a"))
		model := make(map[TupleID]string)
		var used []TupleID
		nextID, maxSize := TupleID(1), 0
		var view *View
		// An index on the one attribute, kept by the relation's journal,
		// must list every bucket in ascending id order whatever the ids.
		var ix *HashIndex
		watch := func() {
			ix = NewCountedHashIndex(r, []int{0})
			r.Subscribe(func(dl Delta) {
				switch dl.Kind {
				case DeltaInsert:
					ix.Add(dl.T)
				case DeltaDelete:
					ix.Remove(dl.T)
				case DeltaUpdate:
					ix.Update(dl.T, dl.Attr, dl.OldID)
				}
			})
		}
		watch()
		insert := func(id TupleID, v string) {
			err := r.Insert(NewTuple(id, v))
			if id == 0 {
				id = nextID
			}
			if _, dup := model[id]; dup != (err != nil) {
				t.Fatalf("Insert(%d): err %v, id already live: %v", id, err, dup)
			} else if dup {
				return
			}
			model[id] = v
			used = append(used, id)
			nextID = max(nextID, id+1)
		}
		pick := func(arg byte) TupleID {
			if len(used) == 0 {
				return 1
			}
			return used[int(arg)%len(used)]
		}
		for i := 0; i+1 < len(data) && i < 400; i += 2 {
			op, arg := data[i]%10, data[i+1]
			v := fmt.Sprint("v", arg%4)
			switch op {
			case 0:
				insert(0, v)
			case 1:
				insert(TupleID(arg%128)+1, v)
			case 2:
				insert(-TupleID(arg%8)-1, v)
			case 3:
				insert(1<<40+TupleID(arg%8), v)
			case 4:
				id := pick(arg)
				_, live := model[id]
				if r.Delete(id) != live {
					t.Fatalf("Delete(%d) disagrees with the model (live %v)", id, live)
				}
				delete(model, id)
			case 5:
				id := pick(arg)
				_, live := model[id]
				if _, err := r.Set(id, 0, S(v)); (err == nil) != live {
					t.Fatalf("Set(%d): err %v, live %v", id, err, live)
				}
				if live {
					model[id] = v
				}
			case 6:
				if view != nil {
					view.Release()
					view = nil
				}
				r = r.Clone()
				watch()
				// The clone's id watermark follows its live tuples alone.
				nextID = 1
				for id := range model {
					nextID = max(nextID, id+1)
				}
			case 7:
				if view == nil {
					view = r.Pin()
				} else {
					view.Release()
					view = nil
				}
			case 8:
				insert(TupleID(4*(r.Size()+1)+4096+int(arg%8)), v)
			case 9:
				for range 32 {
					insert(0, v)
				}
			}
			maxSize = max(maxSize, r.Size())
			if r.Size() != len(model) {
				t.Fatalf("Size %d, model %d", r.Size(), len(model))
			}
			for _, id := range used {
				tp, want := r.Tuple(id), model[id]
				if _, live := model[id]; !live {
					if tp != nil {
						t.Fatalf("Tuple(%d) found a deleted tuple", id)
					}
				} else if tp == nil || tp.ID != id || tp.Vals[0].Str != want {
					t.Fatalf("Tuple(%d) = %v, want value %q", id, tp, want)
				}
			}
			for i, tp := range r.Tuples() {
				if p, ok := r.Position(tp.ID); !ok || p != i {
					t.Fatalf("tuple %d sits at %d, index says %d, %v", tp.ID, i, p, ok)
				}
			}
			for id := range r.over {
				if uint64(id) < uint64(len(r.slots)) {
					t.Fatalf("overflow id %d is covered by the table of %d", id, len(r.slots))
				}
			}
			if limit := 4*(maxSize+1) + 4096; len(r.slots) > limit {
				t.Fatalf("table of %d entries past %d", len(r.slots), limit)
			}
			indexed := 0
			ix.Buckets(func(_ int32, ids []TupleID, _ []BucketCounts) {
				indexed += len(ids)
				if !slices.IsSorted(ids) {
					t.Fatalf("bucket %v is not in ascending id order", ids)
				}
			})
			if indexed != r.Size() {
				t.Fatalf("the index holds %d of %d tuples", indexed, r.Size())
			}
		}
		if view != nil {
			view.Release()
		}
	})
}
