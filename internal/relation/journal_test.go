package relation

import (
	"reflect"
	"runtime"
	"testing"
	"weak"
)

func TestJournalEmitsTypedDeltas(t *testing.T) {
	r := New(MustSchema("r", "A", "B"))
	var got []Delta
	unsub := r.Subscribe(func(d Delta) { got = append(got, d) })

	tu, err := r.InsertRow("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	oldID := tu.IDAt(0)
	if _, err := r.Set(tu.ID, 0, S("z")); err != nil {
		t.Fatal(err)
	}
	// A no-op Set must not emit.
	if _, err := r.Set(tu.ID, 0, S("z")); err != nil {
		t.Fatal(err)
	}
	r.Delete(tu.ID)

	if len(got) != 3 {
		t.Fatalf("got %d deltas, want 3: %+v", len(got), got)
	}
	if got[0].Kind != DeltaInsert || got[0].T != tu {
		t.Fatalf("bad insert delta: %+v", got[0])
	}
	upd := got[1]
	if upd.Kind != DeltaUpdate || upd.T != tu || upd.Attr != 0 ||
		!StrictEq(upd.Old, S("x")) || upd.OldID != oldID {
		t.Fatalf("bad update delta: %+v", upd)
	}
	if got[2].Kind != DeltaDelete || got[2].T != tu {
		t.Fatalf("bad delete delta: %+v", got[2])
	}
	// The deleted tuple's values and ids must still be readable.
	if got[2].T.IDAt(1) == InvalidID || !StrictEq(got[2].T.Vals[0], S("z")) {
		t.Fatal("delete delta lost the tuple's state")
	}

	unsub()
	if _, err := r.InsertRow("p", "q"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("unsubscribed observer still notified: %d deltas", len(got))
	}
}

func TestJournalMultipleSubscribersInOrder(t *testing.T) {
	r := New(MustSchema("r", "A"))
	var order []string
	u1 := r.Subscribe(func(Delta) { order = append(order, "first") })
	u2 := r.Subscribe(func(Delta) { order = append(order, "second") })
	defer u2()
	if _, err := r.InsertRow("v"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "second"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("notification order %v, want %v", order, want)
	}
	u1()
	u1() // double-unsubscribe is a no-op
	order = order[:0]
	if _, err := r.InsertRow("w"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"second"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("after unsubscribe: %v, want %v", order, want)
	}
}

// TestUnsubscribeReleasesSubscriber: once unsubscribed, what a subscriber
// holds is garbage even while the relation lives on, as a one-shot
// violation store's indexes must be after Close.
func TestUnsubscribeReleasesSubscriber(t *testing.T) {
	r := New(MustSchema("r", "A"))
	keep := r.Subscribe(func(Delta) {})
	defer keep()
	var unsub func()
	w := func() weak.Pointer[[1 << 16]byte] {
		held := new([1 << 16]byte)
		unsub = r.Subscribe(func(Delta) { held[0]++ })
		return weak.Make(held)
	}()
	if _, err := r.InsertRow("v"); err != nil {
		t.Fatal(err)
	}
	unsub()
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("the relation still references an unsubscribed subscriber")
	}
	runtime.KeepAlive(r)
}

func TestRestoreNextID(t *testing.T) {
	r := New(MustSchema("r", "A"))
	if _, err := r.InsertRow("a"); err != nil {
		t.Fatal(err)
	}
	mark := r.NextID()
	probe, _ := r.InsertRow("b")
	if probe.ID != mark {
		t.Fatalf("probe got id %d, want %d", probe.ID, mark)
	}
	r.Delete(probe.ID)
	r.RestoreNextID(mark)
	again, _ := r.InsertRow("c")
	if again.ID != mark {
		t.Fatalf("id sequence not rewound: got %d, want %d", again.ID, mark)
	}
	// A stale mark (larger than current) is ignored.
	r.RestoreNextID(mark + 100)
	if r.NextID() != again.ID+1 {
		t.Fatalf("stale mark corrupted the counter: %d", r.NextID())
	}
}
