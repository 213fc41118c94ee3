package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

// postRaw posts body as it is — do marshals a value, which cannot spell
// malformed or padded JSON.
func postRaw(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func errorBody(msg string) string {
	b, _ := json.Marshal(errorResponse{Error: msg})
	return string(b) + "\n"
}

// tinyCreate is createTiny's request with one more base row spliced in.
func tinyCreate(name, row string) []byte {
	return []byte(fmt.Sprintf(`{"name":%q,"schema":{"name":"orders","attrs":["AC","CT"]},"cfds":%q,"base":[{"vals":["212","NYC"]}%s]}`,
		name, tinyCFDs, row))
}

// TestWeightRange: the cost model takes w(t,A) in [0,1]; a weight outside
// it is refused on every route a tuple arrives by, and the session's cost
// stays what it was.
func TestWeightRange(t *testing.T) {
	_, ts := newTestService(t, Options{})
	createTiny(t, ts.URL, "s")
	sess := ts.URL + "/v1/sessions/s"
	for _, c := range []struct{ url, body, want string }{
		{sess + "/apply", `{"inserts":[{"vals":["212","PHI"],"w":[-5,1e300]}]}`, "inserts[0]: weight -5 outside [0,1]"},
		{sess + "/apply", `{"inserts":[{"vals":["212","NYC"]},{"vals":["212","PHI"],"w":[0.5,1.0000001]}]}`, "inserts[1]: weight 1.0000001 outside [0,1]"},
		{sess + "/ingest", `{"inserts":[{"vals":["212","PHI"],"w":[1,-0.25]}]}`, "inserts[0]: weight -0.25 outside [0,1]"},
		// The stdlib path refuses too ("Inserts" is outside the subset).
		{sess + "/apply", `{"Inserts":[{"vals":["212","PHI"],"w":[2,0]}]}`, "inserts[0]: weight 2 outside [0,1]"},
		{ts.URL + "/v1/sessions", string(tinyCreate("c", `,{"vals":["212","PHI"],"w":[-5,1]}`)), "base[1]: weight -5 outside [0,1]"},
	} {
		status, body := postRaw(t, c.url, []byte(c.body))
		if status != http.StatusBadRequest || body != errorBody(c.want) {
			t.Errorf("POST %s %s:\n got %d %s want 400 %s", c.url, c.body, status, body, errorBody(c.want))
		}
	}
	// The bounds themselves are weights.
	if status, body := postRaw(t, sess+"/apply", []byte(`{"inserts":[{"vals":["212","NYC"],"w":[0,1]}]}`)); status != http.StatusOK {
		t.Fatalf("weights 0 and 1: %d %s", status, body)
	}
	var info SessionInfo
	_, body := do(t, "GET", sess, nil)
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Snapshot.Cost != 0 || info.Snapshot.Size != 2 {
		t.Fatalf("after the refusals: cost %v, size %d; want 0 and 2", info.Snapshot.Cost, info.Snapshot.Size)
	}
}

// TestDecodeTupleRejectsNaN: JSON cannot spell NaN, but decodeTuple's range
// check is written so that it would fail one (and ±Inf) all the same.
func TestDecodeTupleRejectsNaN(t *testing.T) {
	for _, w := range [][]float64{{math.NaN(), 0.5}, {1, math.NaN()}, {math.Inf(1), 0}, {0, math.Inf(-1)}} {
		if _, err := decodeTuple(WireTuple{Vals: []*string{nil, nil}, W: w}, 2); err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
			t.Errorf("weights %v: error %v, want a weight outside [0,1]", w, err)
		}
	}
}

// TestTrailingData: after the request object only JSON whitespace may
// remain — on both decoders of /apply and /ingest and on decodeBody
// (create; peers shares it).
func TestTrailingData(t *testing.T) {
	s, ts := newTestService(t, Options{})
	createTiny(t, ts.URL, "s")
	sess := ts.URL + "/v1/sessions/s"
	const trailing = "bad request body: unexpected data after the request object"
	for _, c := range []struct{ url, body string }{
		{sess + "/apply", `{"inserts":[]} {"deletes":[1]} trailing junk`},
		{sess + "/apply", `{"inserts":[]}{"deletes":[1]}`},
		{sess + "/apply", `{"inserts":[]} junk`},
		{sess + "/apply", `{"inserts":[]}]`},
		{sess + "/apply", `{"Inserts":[]} 1`}, // stdlib path
		{sess + "/ingest", `{"inserts":[{"vals":["212","NYC"]}]} null`},
		{ts.URL + "/v1/sessions", string(tinyCreate("c", "")) + ` {}`},
	} {
		status, body := postRaw(t, c.url, []byte(c.body))
		if status != http.StatusBadRequest || body != errorBody(trailing) {
			t.Errorf("%s %s:\n got %d %s want 400 %s", c.url, c.body, status, body, errorBody(trailing))
		}
	}
	if n := s.reg.passes.Load(); n != 0 {
		t.Fatalf("%d engine passes ran for refused bodies", n)
	}
	// What curl -d @file sends stays accepted, on both decoders.
	for _, c := range []struct {
		url, body string
		want      int
	}{
		{sess + "/apply", "{\"inserts\":[]}\n", http.StatusOK},
		{sess + "/apply", "\n {\"Inserts\":[]}\r\n\t ", http.StatusOK},
		{sess + "/ingest", "{\"inserts\":[{\"vals\":[\"212\",\"NYC\"]}]}\n", http.StatusAccepted},
		{ts.URL + "/v1/sessions", string(tinyCreate("c", "")) + "\n", http.StatusCreated},
	} {
		if status, body := postRaw(t, c.url, []byte(c.body)); status != c.want {
			t.Errorf("POST %s %q: %d %s, want %d", c.url, c.body, status, body, c.want)
		}
	}
}

// TestBodyTooLarge: a body over MaxBodyBytes is a 413 with the message it
// always had; one of exactly MaxBodyBytes decodes.
func TestBodyTooLarge(t *testing.T) {
	const limit = 256
	_, ts := newTestService(t, Options{MaxBodyBytes: limit})
	createTiny(t, ts.URL, "s")
	sess := ts.URL + "/v1/sessions/s"
	checkBodyLimit(t, limit, []bodyLimitCase{
		{sess + "/apply", []byte(limitApply), http.StatusOK},
		{sess + "/ingest", []byte(limitApply), http.StatusAccepted},
		{ts.URL + "/v1/sessions", tinyCreate("c", ""), http.StatusCreated},
	})
}

const limitApply = `{"inserts":[{"vals":["212","NYC"]}]}`

// bodyLimitCase is one route checkBodyLimit holds to the body limit: body
// padded to exactly the limit answers ok.
type bodyLimitCase struct {
	url  string
	body []byte
	ok   int
}

// checkBodyLimit posts each case's body padded one byte over the limit and
// an apply body whose value alone is over it, both of which must answer 413
// with the message a body over the limit always had, then the body padded
// to exactly the limit, which must answer the case's status.
func checkBodyLimit(t *testing.T, limit int, cases []bodyLimitCase) {
	t.Helper()
	pad := func(body []byte, n int) []byte {
		return append(bytes.Clone(body), bytes.Repeat([]byte(" "), n-len(body))...)
	}
	const tooLarge = "bad request body: http: request body too large"
	long := []byte(`{"inserts":[{"vals":["212","` + strings.Repeat("N", limit) + `"]}]}`)
	for _, c := range cases {
		for _, body := range [][]byte{pad(c.body, limit+1), long} {
			if status, got := postRaw(t, c.url, body); status != http.StatusRequestEntityTooLarge || got != errorBody(tooLarge) {
				t.Errorf("POST %s, %d bytes: %d %s want 413 %s", c.url, len(body), status, got, errorBody(tooLarge))
			}
		}
		if status, got := postRaw(t, c.url, pad(c.body, limit)); status != c.ok {
			t.Errorf("POST %s, exactly %d bytes: %d %s, want %d", c.url, limit, status, got, c.ok)
		}
	}
}
