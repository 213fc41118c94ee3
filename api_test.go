package cfdclean_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cfdclean"
	"cfdclean/workload"
)

// paperExample builds the paper's Fig. 1 running example: the order
// schema, tuples t1–t4, and CFDs ϕ1/ϕ2.
func paperExample(t *testing.T) (*cfdclean.Schema, *cfdclean.Relation, []*cfdclean.NormalCFD) {
	t.Helper()
	s := cfdclean.MustSchema("order",
		"id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip")
	d := cfdclean.NewRelation(s)
	rows := [][]string{
		{"a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "PHI", "PA", "19014"},
		{"a23", "H. Porter", "17.99", "610", "3456789", "Spruce", "PHI", "PA", "19014"},
		{"a12", "J. Denver", "7.94", "212", "3345677", "Canel", "PHI", "PA", "10012"},
		{"a89", "Snow White", "18.99", "212", "5674322", "Broad", "PHI", "PA", "10012"},
	}
	for _, r := range rows {
		if _, err := d.InsertRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	w := cfdclean.Wildcard
	phi1, err := cfdclean.NewCFD("phi1", s,
		[]string{"AC", "PN"}, []string{"STR", "CT", "ST"},
		[]cfdclean.PatternCell{w, w, w, w, w},
		[]cfdclean.PatternCell{cfdclean.Const("212"), w, w, cfdclean.Const("NYC"), cfdclean.Const("NY")},
		[]cfdclean.PatternCell{cfdclean.Const("610"), w, w, cfdclean.Const("PHI"), cfdclean.Const("PA")},
		[]cfdclean.PatternCell{cfdclean.Const("215"), w, w, cfdclean.Const("PHI"), cfdclean.Const("PA")},
	)
	if err != nil {
		t.Fatal(err)
	}
	phi2, err := cfdclean.NewCFD("phi2", s,
		[]string{"zip"}, []string{"CT", "ST"},
		[]cfdclean.PatternCell{cfdclean.Const("10012"), cfdclean.Const("NYC"), cfdclean.Const("NY")},
		[]cfdclean.PatternCell{cfdclean.Const("19014"), cfdclean.Const("PHI"), cfdclean.Const("PA")},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s, d, cfdclean.Normalize([]*cfdclean.CFD{phi1, phi2})
}

func TestPaperExampleDetection(t *testing.T) {
	_, d, sigma := paperExample(t)
	if cfdclean.Satisfies(d, sigma) {
		t.Fatal("Fig. 1 data must violate ϕ1/ϕ2")
	}
	vio := cfdclean.VioCounts(d, sigma)
	// t3 and t4 (ids 3 and 4) each violate ϕ1 and ϕ2 (Example 2.2).
	for _, id := range []cfdclean.TupleID{3, 4} {
		if vio[id] == 0 {
			t.Fatalf("tuple %d not flagged", id)
		}
	}
	if vio[1] != 0 || vio[2] != 0 {
		t.Fatalf("clean tuples flagged: %v", vio)
	}
	// Detect's workers argument drives nothing: every setting lists the
	// same violations, which are the ones VioCounts counted.
	all := cfdclean.Detect(d, sigma, 0)
	listed := make(map[cfdclean.TupleID]int)
	for _, v := range all {
		listed[v.T]++
	}
	if !reflect.DeepEqual(listed, vio) {
		t.Fatalf("Detect lists %v violations per tuple, VioCounts counts %v", listed, vio)
	}
	for _, workers := range []int{1, 2, 8} {
		if got := cfdclean.Detect(d, sigma, workers); !reflect.DeepEqual(got, all) {
			t.Fatalf("Detect with workers %d = %v, with 0 = %v", workers, got, all)
		}
	}
}

func TestPaperExampleBatchRepair(t *testing.T) {
	_, d, sigma := paperExample(t)
	res, err := cfdclean.BatchRepair(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfdclean.Satisfies(res.Repair, sigma) {
		t.Fatal("repair violates Σ")
	}
	// The suggested fix (Example 1.1): t3/t4 get CT,ST = NYC,NY.
	s := res.Repair.Schema()
	ct, st := s.MustIndex("CT"), s.MustIndex("ST")
	for _, id := range []cfdclean.TupleID{3, 4} {
		tp := res.Repair.Tuple(id)
		if tp.Vals[ct].Str != "NYC" || tp.Vals[st].Str != "NY" {
			t.Fatalf("tuple %d repaired to (%v,%v), want (NYC,NY)",
				id, tp.Vals[ct], tp.Vals[st])
		}
	}
	if res.Changes == 0 || res.Cost <= 0 {
		t.Fatalf("result bookkeeping: %+v", res)
	}
}

func TestPaperExampleIncRepairT5(t *testing.T) {
	// Example 1.1's insertion: t5 = (215, 8983490, NYC, NY, 10012) plus
	// item fields. IncRepair must produce a consistent extension.
	_, d, sigma := paperExample(t)
	repr, err := cfdclean.BatchRepair(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	t5 := cfdclean.NewTuple(0,
		"a99", "New Item", "9.99", "215", "8983490", "Walnut", "NYC", "NY", "10012")
	res, err := cfdclean.IncRepair(repr.Repair, []*cfdclean.Tuple{t5}, sigma,
		&cfdclean.IncOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !cfdclean.Satisfies(res.Repair, sigma) {
		t.Fatal("incremental repair violates Σ")
	}
	// The trusted base is untouched.
	for _, tp := range repr.Repair.Tuples() {
		got := res.Repair.Tuple(tp.ID)
		if got == nil {
			t.Fatalf("base tuple %d lost", tp.ID)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	_, d, _ := paperExample(t)
	var buf bytes.Buffer
	if err := cfdclean.WriteCSV(d, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := cfdclean.ReadCSV("order", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != d.Size() {
		t.Fatalf("round trip lost tuples: %d vs %d", back.Size(), d.Size())
	}
	if n := cfdclean.Dif(back, d); n != 0 {
		t.Fatalf("round trip changed %d cells", n)
	}
}

func TestCFDTextRoundTrip(t *testing.T) {
	s, _, _ := paperExample(t)
	phi, err := cfdclean.NewFD("fd1", s, []string{"AC", "PN"}, []string{"STR"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfdclean.FormatCFDs(&buf, []*cfdclean.CFD{phi}); err != nil {
		t.Fatal(err)
	}
	back, err := cfdclean.ParseCFDs(s, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || len(back[0].Tableau) != 1 {
		t.Fatalf("round trip: %v", back)
	}
}

func TestSatisfiableAPI(t *testing.T) {
	s := cfdclean.MustSchema("r", "A", "B")
	good, _ := cfdclean.NewFD("fd", s, []string{"A"}, []string{"B"})
	if err := cfdclean.Satisfiable(cfdclean.Normalize([]*cfdclean.CFD{good})); err != nil {
		t.Fatalf("FD reported unsatisfiable: %v", err)
	}
	bad, _ := cfdclean.NewCFD("bad", s, []string{"A"}, []string{"B"},
		[]cfdclean.PatternCell{cfdclean.Wildcard, cfdclean.Const("x")},
		[]cfdclean.PatternCell{cfdclean.Wildcard, cfdclean.Const("y")})
	if err := cfdclean.Satisfiable(cfdclean.Normalize([]*cfdclean.CFD{bad})); err == nil {
		t.Fatal("conflicting constants reported satisfiable")
	}
}

func TestWorkloadEndToEnd(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Size: 800, NoiseRate: 0.05, Seed: 7, Weights: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfdclean.BatchRepair(ds.Dirty, ds.Sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cfdclean.EvaluateQuality(ds.Dirty, res.Repair, ds.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if q.Recall < 0.7 {
		t.Fatalf("recall %.2f too low for ρ=5%%", q.Recall)
	}
	if q.Precision < 0.5 {
		t.Fatalf("precision %.2f too low for ρ=5%%", q.Precision)
	}
}

func TestCleanerEndToEnd(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Size: 500, NoiseRate: 0.04, Seed: 9, Weights: true})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cfdclean.NewCleaner(cfdclean.CleanerConfig{
		Sigma: ds.Sigma, Eps: 0.1, Delta: 0.9, Mode: cfdclean.ModeBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Clean(ds.Dirty, &cfdclean.Oracle{Opt: ds.Opt})
	if err != nil {
		t.Fatal(err)
	}
	if !cfdclean.Satisfies(out.Repair, ds.Sigma) {
		t.Fatal("cleaner output violates Σ")
	}
}

func TestOrderingNames(t *testing.T) {
	for _, o := range []cfdclean.Ordering{
		cfdclean.OrderLinear, cfdclean.OrderByViolations, cfdclean.OrderByWeight,
	} {
		if o.String() == "" {
			t.Fatal("ordering must stringify")
		}
	}
}

func TestStreamingSessionEndToEnd(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Size: 600, NoiseRate: 0.08, Seed: 13, Weights: true})
	if err != nil {
		t.Fatal(err)
	}
	deltas, truth := ds.StreamBatches(4)
	if len(deltas) != 4 || len(truth) != len(deltas) {
		t.Fatalf("StreamBatches returned %d/%d batches, want 4", len(deltas), len(truth))
	}

	sess, err := cfdclean.NewSession(ds.Opt, ds.Sigma,
		&cfdclean.IncOptions{Ordering: cfdclean.OrderByViolations})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Initial() != nil {
		t.Fatal("clean base must not trigger an initial repair")
	}

	streamed, correct := 0, 0
	for i, delta := range deltas {
		res, err := sess.ApplyDelta(delta)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !sess.Satisfied() {
			t.Fatalf("batch %d: maintained state reports violations", i)
		}
		streamed += len(delta)
		for _, rt := range res.Inserted {
			for _, want := range truth[i] {
				if want.ID != rt.ID {
					continue
				}
				same := true
				for a := range rt.Vals {
					if rt.Vals[a].String() != want.Vals[a].String() {
						same = false
						break
					}
				}
				if same {
					correct++
				}
			}
		}
	}
	// The invariant: a full re-detection over the final database agrees
	// with the session's O(1) maintained answer.
	if !cfdclean.Satisfies(sess.Current(), ds.Sigma) {
		t.Fatal("final session database violates Σ under full re-detection")
	}
	if got := sess.Current().Size(); got != ds.Opt.Size()+streamed {
		t.Fatalf("final size %d, want base %d + streamed %d", got, ds.Opt.Size(), streamed)
	}
	if float64(correct) < 0.5*float64(streamed) {
		t.Fatalf("only %d/%d streamed tuples repaired to ground truth", correct, streamed)
	}
	batches, tuples, cost, _ := sess.Stats()
	if batches != len(deltas) || tuples != streamed || cost <= 0 {
		t.Fatalf("stats (%d, %d, %v) inconsistent with stream", batches, tuples, cost)
	}
}
