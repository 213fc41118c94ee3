// Service demonstrates cfdserved from the client side: it starts the
// cleaning service in-process on a loopback port, then talks to it over
// plain HTTP/JSON exactly as a remote tenant would — create a named
// session from a CSV base plus a CFD file, subscribe to the live event
// stream, push dirty ΔD batches, and read maintained violation state.
//
// Run with: go run ./examples/service
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"cfdclean"
	"cfdclean/internal/server"
	"cfdclean/workload"
)

func main() {
	// --- Server side: one call in a real deployment this is `cfdserved`.
	svc := server.New(server.Options{QueueDepth: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		hs.Shutdown(ctx)
	}()
	fmt.Printf("cfdserved listening on %s\n\n", base)

	// --- Client side: everything below is plain HTTP.
	ds, err := workload.Generate(workload.Config{
		Size: 2000, NoiseRate: 0.06, Seed: 11, Weights: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	deltas, _ := ds.StreamBatches(6)

	var baseCSV, cfdsTxt bytes.Buffer
	if err := cfdclean.WriteCSV(ds.Opt, &baseCSV); err != nil {
		log.Fatal(err)
	}
	if err := cfdclean.FormatCFDs(&cfdsTxt, ds.CFDs); err != nil {
		log.Fatal(err)
	}

	var created server.CreateResponse
	post(base+"/v1/sessions", server.CreateRequest{
		Name:    "orders",
		CFDs:    cfdsTxt.String(),
		BaseCSV: baseCSV.String(),
		Options: &server.WireOptions{Ordering: "vio"},
	}, http.StatusCreated, &created)
	fmt.Printf("session %q created: %d tuples, %d rules, violations=%d\n\n",
		created.Name, created.Snapshot.Size, created.Rules, created.Snapshot.Violations)

	// Live notifications: one SSE event per applied batch, carrying the
	// repaired (dirty) cells and the post-batch violation count. Wait
	// for the server's stream-open confirmation before applying, or the
	// first batch's event could be broadcast to zero subscribers.
	events := make(chan server.Event, 16)
	subscribed := make(chan struct{})
	go streamEvents(base+"/v1/sessions/orders/events", subscribed, events)
	select {
	case <-subscribed:
	case <-time.After(10 * time.Second):
		log.Fatal("event stream never opened")
	}

	for i, delta := range deltas {
		req := server.ApplyRequest{Inserts: make([]server.WireTuple, len(delta))}
		for j, t := range delta {
			wt := server.EncodeTuple(t)
			wt.ID = 0
			req.Inserts[j] = wt
		}
		var ar server.ApplyResponse
		post(base+"/v1/sessions/orders/apply", req, http.StatusOK, &ar)

		select {
		case ev := <-events:
			fmt.Printf("batch %d: %3d tuples  %2d dirty cells repaired  violations now %d  (size %d, cost %.2f)\n",
				i, ev.Inserted, len(ev.Dirty), ev.Snapshot.Violations, ev.Snapshot.Size, ar.Cost)
		case <-time.After(10 * time.Second):
			log.Fatal("no event for applied batch")
		}
	}

	var vr server.ViolationsResponse
	get(base+"/v1/sessions/orders/violations?limit=5", &vr)
	var info server.SessionInfo
	get(base+"/v1/sessions/orders", &info)
	fmt.Printf("\nfinal: %d tuples, %d batches, %d cells changed, open violations: %d\n",
		info.Snapshot.Size, info.Snapshot.Batches, info.Snapshot.Changes, vr.Total)

	// /v1/metrics carries every family /metrics does, keyed by the same
	// names; a histogram is {count, sum, buckets}.
	var mr struct {
		Passes float64 `json:"cfdserved_passes_total"`
		Pass   struct {
			Count uint64  `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"cfdserved_pass_duration_seconds"`
	}
	get(base+"/v1/metrics", &mr)
	if mr.Pass.Count > 0 {
		fmt.Printf("service: %.0f passes, mean pass %.1fms\n",
			mr.Passes, 1000*mr.Pass.Sum/float64(mr.Pass.Count))
	}
}

func post(url string, body any, want int, out any) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		log.Fatalf("POST %s: %d: %s", url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			log.Fatal(err)
		}
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		log.Fatal(err)
	}
}

// streamEvents decodes the session's SSE stream into Events, closing
// subscribed once the server confirms the stream is live (the ": stream
// open" comment the server writes on subscription).
func streamEvents(url string, subscribed chan<- struct{}, out chan<- server.Event) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	opened := false
	for sc.Scan() {
		line := sc.Text()
		if !opened && strings.HasPrefix(line, ":") {
			opened = true
			close(subscribed)
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			log.Fatal(err)
		}
		out <- ev
	}
}
