package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
)

// The equivalence battery: every response the service produces must be
// byte-identical to driving the in-process Session API with the same
// call sequence. inProcess replays exactly what the handler stack does —
// same CSV parse, same wire decode, same ApplyOps, same wire encode — so
// any divergence (ordering, float formatting, id assignment, snapshot
// bookkeeping) fails a bytes.Equal, not a fuzzy comparison.

// inProcess replays a server session's life in-process and returns the
// responses the server should have produced, normalized to JSON bytes.
type inProcess struct {
	t    *testing.T
	name string
	sess *increpair.Session
	rel  *relation.Relation
	seq  uint64
}

func newInProcess(t *testing.T, name, baseCSV, cfds string, wo *WireOptions) *inProcess {
	t.Helper()
	rel, err := relation.ReadCSV("data", strings.NewReader(baseCSV))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := cfd.Parse(rel.Schema(), strings.NewReader(cfds))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := decodeOptions(wo)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := increpair.NewSession(rel, cfd.NormalizeAll(parsed), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return &inProcess{t: t, name: name, sess: sess, rel: rel}
}

// createResponse builds the CreateResponse the server should return.
func (p *inProcess) createResponse(rules int) []byte {
	resp := CreateResponse{
		Name:     p.name,
		Attrs:    p.rel.Schema().Attrs(),
		Rules:    rules,
		Snapshot: encodeSnapshot(p.sess.Snapshot()),
	}
	if ini := p.sess.Initial(); ini != nil {
		resp.Initial = &BatchSummary{Tuples: len(ini.Inserted), Cost: ini.Cost, Changes: ini.Changes}
	}
	return mustJSON(p.t, resp)
}

// apply replays one wire batch exactly as handleApply does.
func (p *inProcess) apply(ar ApplyRequest) []byte {
	p.t.Helper()
	h := &hosted{name: p.name, schema: p.rel.Schema(), attrs: p.rel.Schema().Attrs(), sess: p.sess}
	deletes, sets, inserts, err := h.decodeApply(ar)
	if err != nil {
		p.t.Fatal(err)
	}
	res, deleted, err := p.sess.ApplyOps(deletes, sets, inserts)
	if err != nil {
		p.t.Fatal(err)
	}
	p.seq++
	return mustJSON(p.t, applyResponse(p.name, p.seq, res, deleted, p.sess.Snapshot(), h.attrs))
}

func (p *inProcess) dump() []byte {
	var b bytes.Buffer
	if err := p.sess.Dump(&b); err != nil {
		p.t.Fatal(err)
	}
	return b.Bytes()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// normalize re-marshals a raw server body through the wire struct so it
// compares byte-for-byte with locally built responses (the server's
// json.Encoder appends a newline; struct order and value formatting are
// identical by construction).
func normalize[T any](t *testing.T, raw []byte) []byte {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal %T: %v: %s", v, err, raw)
	}
	return mustJSON(t, v)
}

// wireBatches turns a dataset's dirty stream into wire insert batches
// (ids zeroed: the session assigns arrival-order ids).
func wireBatches(ds *gen.Dataset, n int) [][]WireTuple {
	deltas, _ := ds.StreamBatches(n)
	out := make([][]WireTuple, len(deltas))
	for i, delta := range deltas {
		out[i] = make([]WireTuple, len(delta))
		for j, tt := range delta {
			wt := EncodeTuple(tt)
			wt.ID = 0
			out[i][j] = wt
		}
	}
	return out
}

func datasetWire(t *testing.T, size int, seed int64) (baseCSV, cfds string, ds *gen.Dataset) {
	t.Helper()
	ds, err := gen.New(gen.Config{Size: size, NoiseRate: 0.1, Seed: seed, Weights: true})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, cfdBuf bytes.Buffer
	if err := relation.WriteCSV(ds.Opt, &csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := cfd.Format(&cfdBuf, ds.CFDs); err != nil {
		t.Fatal(err)
	}
	return csvBuf.String(), cfdBuf.String(), ds
}

// TestServerByteIdenticalToInProcess drives the same batch sequence —
// streamed inserts plus a final mixed deletes/sets/inserts batch —
// through the HTTP service and the in-process API at several worker
// counts and orderings, requiring byte-identical responses and dumps.
func TestServerByteIdenticalToInProcess(t *testing.T) {
	baseCSV, cfds, ds := datasetWire(t, 240, 42)
	batches := wireBatches(ds, 3)
	if len(batches) < 2 {
		t.Fatal("fixture produced too few batches")
	}

	for _, tc := range []struct {
		workers  int
		ordering string
	}{
		{1, "linear"}, {2, "linear"}, {4, "linear"}, {0, "linear"},
		{1, "vio"}, {2, "vio"}, {4, "vio"},
	} {
		t.Run(fmt.Sprintf("workers=%d/%s", tc.workers, tc.ordering), func(t *testing.T) {
			_, ts := newTestService(t, Options{})
			base := ts.URL
			name := "equiv"
			wo := &WireOptions{Ordering: tc.ordering, Workers: tc.workers}

			resp, body := do(t, "POST", base+"/v1/sessions", CreateRequest{
				Name: name, CFDs: cfds, BaseCSV: baseCSV, Options: wo,
			})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create: %d: %s", resp.StatusCode, body)
			}
			p := newInProcess(t, name, baseCSV, cfds, wo)
			parsed, _ := cfd.Parse(p.rel.Schema(), strings.NewReader(cfds))
			if got, want := normalize[CreateResponse](t, body), p.createResponse(len(cfd.NormalizeAll(parsed))); !bytes.Equal(got, want) {
				t.Fatalf("create response diverged:\nserver %s\nlocal  %s", got, want)
			}

			var insertedIDs []int64
			for i, wb := range batches {
				req := ApplyRequest{Inserts: wb}
				resp, body := do(t, "POST", base+"/v1/sessions/"+name+"/apply", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("apply %d: %d: %s", i, resp.StatusCode, body)
				}
				got := normalize[ApplyResponse](t, body)
				want := p.apply(req)
				if !bytes.Equal(got, want) {
					t.Fatalf("batch %d diverged:\nserver %s\nlocal  %s", i, got, want)
				}
				var ar ApplyResponse
				json.Unmarshal(body, &ar)
				for _, wt := range ar.Inserted {
					insertedIDs = append(insertedIDs, wt.ID)
				}
			}

			// One mixed batch: delete two streamed tuples, dirty one
			// surviving cell, insert one fresh tuple.
			attrs := p.rel.Schema().Attrs()
			mixed := ApplyRequest{
				Deletes: insertedIDs[:2],
				Sets:    []WireSet{{ID: insertedIDs[2], Attr: attrs[6], Value: strp("PHL")}},
				Inserts: batches[0][:1],
			}
			resp, body = do(t, "POST", base+"/v1/sessions/"+name+"/apply", mixed)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mixed apply: %d: %s", resp.StatusCode, body)
			}
			if got, want := normalize[ApplyResponse](t, body), p.apply(mixed); !bytes.Equal(got, want) {
				t.Fatalf("mixed batch diverged:\nserver %s\nlocal  %s", got, want)
			}

			_, dumpBody := do(t, "GET", base+"/v1/sessions/"+name+"/dump", nil)
			if !bytes.Equal(dumpBody, p.dump()) {
				t.Fatal("final dump diverged from in-process relation")
			}
		})
	}
}

// TestServerGoldenFixtureInitialClean opens a session over a committed
// golden fixture's dirty database: the create response (including the
// §5.3 initial-clean summary) and the resulting dump must byte-match
// the in-process API.
func TestServerGoldenFixtureInitialClean(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "golden", "paper-fig1")
	dirty, err := os.ReadFile(filepath.Join(dir, "dirty.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rules, err := os.ReadFile(filepath.Join(dir, "cfds.txt"))
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestService(t, Options{})
	base := ts.URL
	resp, body := do(t, "POST", base+"/v1/sessions", CreateRequest{
		Name: "golden", CFDs: string(rules), BaseCSV: string(dirty),
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
	var cr CreateResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Initial == nil || cr.Initial.Tuples == 0 {
		t.Fatalf("dirty golden base must trigger an initial clean: %s", body)
	}

	p := newInProcess(t, "golden", string(dirty), string(rules), nil)
	parsed, _ := cfd.Parse(p.rel.Schema(), strings.NewReader(string(rules)))
	if got, want := normalize[CreateResponse](t, body), p.createResponse(len(cfd.NormalizeAll(parsed))); !bytes.Equal(got, want) {
		t.Fatalf("golden create diverged:\nserver %s\nlocal  %s", got, want)
	}
	_, dumpBody := do(t, "GET", base+"/v1/sessions/golden/dump", nil)
	if !bytes.Equal(dumpBody, p.dump()) {
		t.Fatal("golden dump diverged from in-process clean")
	}
}

// TestServerConcurrentSessionsByteIdentical hosts many sessions driven
// concurrently — different tenants, different seeds, mixed worker
// counts — and requires every session's full response stream and final
// dump to byte-match an in-process replay. Run under -race in CI, this
// is the multi-tenant isolation proof: tenants sharing the service
// cannot perturb each other's repairs.
func TestServerConcurrentSessionsByteIdentical(t *testing.T) {
	const tenants = 9
	_, ts := newTestService(t, Options{QueueDepth: 8})
	base := ts.URL

	type tenant struct {
		name    string
		baseCSV string
		cfds    string
		wo      *WireOptions
		batches [][]WireTuple
		bodies  [][]byte
		dump    []byte
	}
	workerChoice := []int{1, 2, 4, 0}
	tens := make([]*tenant, tenants)
	for i := range tens {
		baseCSV, cfds, ds := datasetWire(t, 120, int64(100+i))
		tens[i] = &tenant{
			name:    fmt.Sprintf("tenant-%d", i),
			baseCSV: baseCSV,
			cfds:    cfds,
			wo:      &WireOptions{Ordering: "linear", Workers: workerChoice[i%len(workerChoice)]},
			batches: wireBatches(ds, 2),
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for _, tn := range tens {
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			resp, body := do(t, "POST", base+"/v1/sessions", CreateRequest{
				Name: tn.name, CFDs: tn.cfds, BaseCSV: tn.baseCSV, Options: tn.wo,
			})
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("%s create: %d: %s", tn.name, resp.StatusCode, body)
				return
			}
			for i, wb := range tn.batches {
				resp, body := do(t, "POST", base+"/v1/sessions/"+tn.name+"/apply", ApplyRequest{Inserts: wb})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s apply %d: %d: %s", tn.name, i, resp.StatusCode, body)
					return
				}
				tn.bodies = append(tn.bodies, body)
			}
			_, dump := do(t, "GET", base+"/v1/sessions/"+tn.name+"/dump", nil)
			tn.dump = dump
		}(tn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Replay each tenant in-process, serially, and compare.
	for _, tn := range tens {
		p := newInProcess(t, tn.name, tn.baseCSV, tn.cfds, tn.wo)
		for i, wb := range tn.batches {
			want := p.apply(ApplyRequest{Inserts: wb})
			got := normalize[ApplyResponse](t, tn.bodies[i])
			if !bytes.Equal(got, want) {
				t.Fatalf("%s batch %d diverged under concurrency:\nserver %s\nlocal  %s", tn.name, i, got, want)
			}
		}
		if !bytes.Equal(tn.dump, p.dump()) {
			t.Fatalf("%s dump diverged under concurrency", tn.name)
		}
	}
}
