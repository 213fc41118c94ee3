package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"cfdclean/internal/gen"
)

// stdlibApply is the reference the hand-written decoder is held to,
// written out here rather than borrowed from the code under test:
// encoding/json with unknown fields refused, then nothing but whitespace.
func stdlibApply(b []byte) (ar ApplyRequest, err error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err = dec.Decode(&ar); err != nil {
		return ar, err
	}
	if _, err = dec.Token(); err != io.EOF {
		return ar, errors.New("unexpected data after the request object")
	}
	return ar, nil
}

// canonicalBody is the body the benchmark harness, examples/service and
// the equivalence batteries post: json.Marshal of EncodeTuple output with
// the id zeroed — n generated tuples of 13 values, with weights or not.
func canonicalBody(tb testing.TB, n int, weights bool) []byte {
	tb.Helper()
	ds, err := gen.New(gen.Config{Size: n, NoiseRate: 0.1, Seed: 7, Weights: weights})
	if err != nil {
		tb.Fatal(err)
	}
	req := ApplyRequest{Inserts: make([]WireTuple, 0, n)}
	for _, t := range ds.Dirty.Tuples() {
		wt := EncodeTuple(t)
		wt.ID = 0
		req.Inserts = append(req.Inserts, wt)
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// applyBodies is the differential table, and the fuzz target's seeds;
// the first entry is the canonical body.
func applyBodies(tb testing.TB) [][]byte {
	bodies := [][]byte{canonicalBody(tb, 3, true), canonicalBody(tb, 3, false)}
	for _, s := range []string{
		// The shapes the service is sent.
		`{"inserts":[{"vals":["212","NYC"]},{"vals":["212",null],"w":[0.5,1]}],"deletes":[1,2],"sets":[{"id":3,"attr":"CT","value":"PHI"},{"id":4,"attr":"AC","value":null}]}`,
		`{"deletes":[7]}`, `{"sets":[{"id":1,"attr":"CT","value":""}]}`, `{}`,
		`{"inserts":[{"id":5,"vals":["a"]}]}`, `{"inserts":[{"vals":[null,null]}]}`,
		// [] against absent against null.
		`{"inserts":[],"deletes":[],"sets":[]}`, `{"inserts":null}`, `{"deletes":null,"sets":null}`,
		`{"inserts":[{"vals":[],"w":[]}]}`, `{"inserts":[{"vals":null}]}`, `{"inserts":[{"vals":["a"],"w":null}]}`,
		`{"inserts":[{}]}`, `{"inserts":[null]}`, `{"sets":[{}]}`, `{"sets":[{"attr":null}]}`, `{"inserts":[{"id":null,"vals":["a"]}]}`,
		`{"inserts":[{"vals":["a"],"w":[null]}]}`, `{"deletes":[null]}`, `null`, `[]`, `"inserts"`, `7`,
		// Strings: escapes, what json.Marshal escapes, non-ASCII, broken UTF-8, control bytes.
		`{"inserts":[{"vals":["a\"b","\\","\/","\b\f\n\r\t","\u00e9","\ud83d\ude00","\ud800","<&>","\u003c\u0026\u003e"]}]}`,
		`{"inserts":[{"vals":["é日本","\u2028",""]}]}`, "{\"inserts\":[{\"vals\":[\"\xff\",\"a\xc3\",\"\xed\xa0\x80\"]}]}",
		"{\"inserts\":[{\"vals\":[\"a\tb\"]}]}", "{\"inserts\":[{\"vals\":[\"a\x00b\"]}]}", `{"inserts":[{"vals":["\x41"]}]}`,
		`{"inserts":[{"vals":["\u12"]}]}`, `{"inserts":[{"vals":["abc\"]}]}`, `{"inserts":[{"vals":["abc]}]}`,
		`{"sets":[{"id":1,"attr":"C\u0054","value":"\n"}]}`, `{"sets":[{"id":1,"attr":"é","value":"\\N"}]}`,
		// Keys: case folding, escapes, duplicates (the stdlib merges), unknown fields.
		`{"Inserts":[{"vals":["a"]}]}`, `{"INSERTS":[],"Deletes":[1]}`, `{"ins\u0065rts":[]}`, `{"inserts":[{"Vals":["a"]}]}`,
		`{"inserts":[{"vals":["a"]}],"inserts":[{"vals":["b"]},{"vals":["c"]}]}`, `{"inserts":[{"vals":["a"],"w":[1],"w":[0,0]}]}`,
		`{"inserts":[{"vals":["a","b"],"vals":["c"]}]}`, `{"deletes":[1],"deletes":[2]}`, `{"sets":[{"id":1,"id":2}]}`,
		`{"sets":[{"id":1,"attr":"a","value":"x","value":null}]}`, `{"inserts":[],"Inserts":[{"vals":["a"]}]}`,
		`{"extra":1}`, `{"inserts":[{"vals":["a"],"weight":[1]}]}`, `{"sets":[{"id":1,"attr":"a","value":"b","to":"c"}]}`, `{"":[]}`,
		// Numbers.
		`{"deletes":[0,-0,1,-1,9223372036854775807,-9223372036854775808]}`, `{"deletes":[9223372036854775808]}`,
		`{"deletes":[12345678901234567890]}`, `{"deletes":[01]}`, `{"deletes":[1.0]}`, `{"deletes":[1e2]}`, `{"deletes":[-]}`,
		`{"deletes":[+1]}`, `{"deletes":[0x10]}`, `{"deletes":[1_000]}`, `{"deletes":["1"]}`, `{"deletes":[1,]}`, `{"deletes":[,1]}`,
		`{"inserts":[{"id":1.0,"vals":["a"]}]}`, `{"inserts":[{"id":01,"vals":["a"]}]}`, `{"inserts":[{"id":-0,"vals":["a"]}]}`,
		`{"inserts":[{"vals":["a"],"w":[0,-0,0.5,1e0,1E+0,1e-7,1.5e300,-2.5,100,0.1e1]}]}`, `{"inserts":[{"vals":["a"],"w":[1e999]}]}`,
		`{"inserts":[{"vals":["a"],"w":[-1e999]}]}`, `{"inserts":[{"vals":["a"],"w":[1e-999]}]}`, `{"inserts":[{"vals":["a"],"w":[01]}]}`,
		`{"inserts":[{"vals":["a"],"w":[1.]}]}`, `{"inserts":[{"vals":["a"],"w":[.5]}]}`, `{"inserts":[{"vals":["a"],"w":[1e]}]}`,
		`{"inserts":[{"vals":["a"],"w":[1e+]}]}`, `{"inserts":[{"vals":["a"],"w":[Inf]}]}`, `{"inserts":[{"vals":["a"],"w":[NaN]}]}`,
		`{"inserts":[{"vals":["a"],"w":[0x1p-2]}]}`, `{"inserts":[{"vals":["a"],"w":["1"]}]}`, `{"inserts":[{"vals":["a"],"w":[0.1234567890123456789012345678901234567890]}]}`,
		// Wrong types and literals.
		`{"inserts":{}}`, `{"inserts":[[]]}`, `{"inserts":[{"vals":"a"}]}`, `{"inserts":[{"vals":[1]}]}`, `{"inserts":[{"vals":[true]}]}`,
		`{"inserts":[{"vals":[nul]}]}`, `{"inserts":[{"vals":[nulll]}]}`, `{"inserts":[{"vals":[n]}]}`, `{"sets":[{"id":"1"}]}`, `{"sets":[{"attr":1}]}`,
		// Whitespace, structure, what follows the object.
		" \t\r\n{ \"inserts\" : [ { \"vals\" : [ \"a\" , null ] , \"w\" : [ 1 , 0 ] } ] , \"deletes\" : [ 1 , 2 ] }\r\n\t ",
		"{\"inserts\":[]}\n", "\ufeff{}", "{\"inserts\"\v:[]}", `{"inserts":[]} {"deletes":[1]}`, `{"inserts":[]}x`, `{"inserts":[]}}`, `{}{}`,
		`{"inserts":[],}`, `{,}`, `{"inserts"}`, `{"inserts":}`, `{inserts:[]}`, `{'inserts':[]}`, `{"inserts":[}`, `{"inserts":[{]}`, ``, ` `, `{`, `}`,
	} {
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

// checkAgainstStdlib: whenever the hand-written decoder answers, the
// stdlib decodes the same bytes without error to the same value.
func checkAgainstStdlib(t *testing.T, b []byte) (fast bool) {
	t.Helper()
	got := ApplyRequest{Deletes: []int64{-1}} // must be untouched on a decline
	fast = decodeApplyRequest(b, &got)
	want, err := stdlibApply(b)
	switch {
	case !fast:
		if !reflect.DeepEqual(got, ApplyRequest{Deletes: []int64{-1}}) {
			t.Fatalf("%q: declined, yet wrote %+v", b, got)
		}
	case err != nil:
		t.Fatalf("%q: answered %+v, the stdlib refuses: %v", b, got, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%q:\n got %s\nwant %s", b, mustJSON(t, got), mustJSON(t, want))
	}
	return fast
}

// TestApplyDecodeVsStdlib runs the table through both decoders, then
// through the handler: a body the stdlib refuses is a 400 carrying the
// stdlib's error string byte for byte, and one it accepts is never a
// decoding error, whichever decoder took it.
func TestApplyDecodeVsStdlib(t *testing.T) {
	_, ts := newTestService(t, Options{})
	createTiny(t, ts.URL, "s")
	bodies := applyBodies(t)
	// The canonical body cut at every byte (the fuzzer truncates on its
	// own; these would only slow its start).
	for canon, i := bodies[0], 0; i < len(canon); i++ {
		bodies = append(bodies, canon[:i])
	}
	answered := 0
	for _, b := range bodies {
		if checkAgainstStdlib(t, b) {
			answered++
		}
		status, got := postRaw(t, ts.URL+"/v1/sessions/s/apply", b)
		if _, err := stdlibApply(b); err != nil {
			if want := errorBody("bad request body: " + err.Error()); status != http.StatusBadRequest || got != want {
				t.Fatalf("%q:\n got %d %s want 400 %s", b, status, got, want)
			}
		} else if strings.Contains(got, "bad request body") {
			t.Fatalf("%q: the stdlib decodes it, the handler answers %d %s", b, status, got)
		}
	}
	// The table must sit on both sides of the choice.
	if answered < 20 || answered > len(bodies)-100 {
		t.Fatalf("hand-written decoder answered %d of %d bodies", answered, len(bodies))
	}
}

func FuzzApplyDecodeVsStdlib(f *testing.F) {
	for _, b := range applyBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkAgainstStdlib(t, b) })
}

// TestApplyDecodeTakesFastPath: the bodies real clients produce — the
// harness and examples/service (EncodeTuple through json.Marshal), the
// server tests (do with an ApplyRequest) — are inside the subset. A
// decoder that declined everything would pass every other test.
func TestApplyDecodeTakesFastPath(t *testing.T) {
	s, ts := newTestService(t, Options{})
	baseCSV, cfds, ds := datasetWire(t, 120, 5)
	do(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Name: "s", BaseCSV: baseCSV, CFDs: cfds})
	url := ts.URL + "/v1/sessions/s"
	reqs := []ApplyRequest{{}, {Inserts: []WireTuple{}}}
	for _, batch := range wireBatches(ds, 4) {
		reqs = append(reqs, ApplyRequest{Inserts: batch})
	}
	nulls := make([]*string, ds.Dirty.Schema().Arity())
	nulls[0] = strp(`<a href="x">Tom & Jerry's</a>` + " \\ / \u2028 é日本 \x7f")
	reqs = append(reqs,
		ApplyRequest{Inserts: []WireTuple{{Vals: nulls}}},
		ApplyRequest{Deletes: []int64{1, 2}, Sets: []WireSet{
			{ID: 3, Attr: ds.Dirty.Schema().Attr(1), Value: strp("x")},
			{ID: 4, Attr: ds.Dirty.Schema().Attr(2), Value: nil},
		}})
	for _, req := range reqs {
		if resp, body := do(t, "POST", url+"/apply", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("apply %s: %d %s", mustJSON(t, req), resp.StatusCode, body)
		}
		req.Deletes, req.Sets = nil, nil
		if resp, body := do(t, "POST", url+"/ingest", req); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: %d %s", resp.StatusCode, body)
		}
	}
	if n, declined := s.reg.applyBodies.Load(), s.reg.applyBodiesStdlib.Load(); n != uint64(2*len(reqs)) || declined != 0 {
		t.Fatalf("%d bodies read, %d declined by the hand-written decoder; want %d and 0", n, declined, 2*len(reqs))
	}
}

// TestApplyDecodeCopiesOut: nothing decoded points into the body, so the
// pooled buffer can be overwritten by the next request.
func TestApplyDecodeCopiesOut(t *testing.T) {
	for _, b := range [][]byte{canonicalBody(t, 5, true), []byte(`{"sets":[{"id":1,"attr":"CT","value":"a\nb"}],"deletes":[3]}`)} {
		var got ApplyRequest
		if !decodeApplyRequest(b, &got) {
			t.Fatalf("declined %q", b)
		}
		want, err := stdlibApply(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			b[i] = 'X'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded request changed with its buffer:\n got %s\nwant %s", mustJSON(t, got), mustJSON(t, want))
		}
	}
}

// TestApplyDecodeAllocs pins the allocations of one harness-sized body —
// 100 tuples of 13 values and 13 weights: 13 strings and three exact
// slices per tuple, the inserts slice's doublings and the decoder's
// scratch. encoding/json makes about 3 500 on the same bytes.
func TestApplyDecodeAllocs(t *testing.T) {
	b := canonicalBody(t, 100, true)
	var ar ApplyRequest
	n := testing.AllocsPerRun(20, func() {
		if !decodeApplyRequest(b, &ar) {
			t.Fatal("declined the canonical body")
		}
	})
	if want := float64(100*(13+3) + 25); n > want {
		t.Fatalf("%.0f allocations per %d-byte body, want at most %.0f", n, len(b), want)
	}
}

func BenchmarkApplyDecode(b *testing.B) {
	body := canonicalBody(b, 100, true)
	b.Run("handwritten", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var ar ApplyRequest
			if !decodeApplyRequest(body, &ar) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var ar ApplyRequest
			if err := decodeJSON(bytes.NewReader(body), &ar); err != nil {
				b.Fatal(err)
			}
		}
	})
}
