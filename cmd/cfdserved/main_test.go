package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"cfdclean/internal/server"
)

// TestServeLifecycle boots the real service loop on a loopback port,
// performs one session round trip over HTTP, then stops it with a
// synthetic signal and expects a clean drain.
func TestServeLifecycle(t *testing.T) {
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve("127.0.0.1:0", "", server.Options{QueueDepth: 8, DrainTimeout: 10 * time.Second}, stop, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	create := `{"name":"smoke","base_csv":"AC,CT\n212,NYC\n","cfds":"cfd phi1: [AC] -> [CT]\n(212 || NYC)\n"}`
	resp, err = http.Post(base+"/v1/sessions", "application/json", bytes.NewReader([]byte(create)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
	apply := `{"inserts":[{"vals":["212","PHI"]}]}`
	resp, err = http.Post(base+"/v1/sessions/smoke/apply", "application/json", bytes.NewReader([]byte(apply)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"satisfied":true`)) {
		t.Fatalf("apply: %d: %s", resp.StatusCode, body)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not drain after signal")
	}
}

func TestServeBadAddr(t *testing.T) {
	if err := serve("127.0.0.1:-1", "", server.Options{QueueDepth: 8, DrainTimeout: time.Second}, nil, nil); err == nil {
		t.Fatal("invalid listen address must fail")
	}
	if err := serve("127.0.0.1:0", "127.0.0.1:-1", server.Options{QueueDepth: 8, DrainTimeout: time.Second}, nil, nil); err == nil {
		t.Fatal("invalid pprof address must fail")
	}
}

// TestParseFlags runs every validation main exits 2 on, and holds the
// flag set to the names README's cfdserved table lists.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error; "" means the line is valid
	}{
		{"-addr :9000 -data-dir d -store disk -peers a:1,b:2 -self b:2 -ack quorum", ""},
		{"-data-dir d -store disk", ""},
		{"-store disk", "-data-dir"},
		{"-data-dir d -store mem", "-store"},
		{"-store mem", "-store"},
		{"-peers a:1,b:2", "-self"},
		{"-peers a:1,b:2 -self c:3", `-self "c:3"`},
		{"-fsync never", "-fsync"},
		{"-ack all", "-ack"},
		{"loadtest", `unexpected argument "loadtest"`},
		{"-addr :9000 serve", `unexpected argument "serve"`},
		{"-loadtest", "flag provided but not defined: -loadtest"},
		{"-slo-p99 1", "flag provided but not defined: -slo-p99"},
		{"-coalesce-delay 1ms", "flag provided but not defined: -coalesce-delay"},
		{"-coalesce-tuples 8", "flag provided but not defined: -coalesce-tuples"},
		{"-addr 127.0.0.1:0 -data-dir d -fsync batch -store disk -snap-every 64", ""}, // bench/serve.go's line
		{"-fsync off", ""},
		{"-fsync interval", "-fsync"},
		{"-fsync-interval 1s", "flag provided but not defined: -fsync-interval"},
		{"-quota-ops 2", "flag provided but not defined: -quota-ops"},
		{"-quota-tuples 2", "flag provided but not defined: -quota-tuples"},
		{"-quota-max-size 2", "flag provided but not defined: -quota-max-size"},
		{"-quota-max-subscribers 2", "flag provided but not defined: -quota-max-subscribers"},
	} {
		_, _, _, err := parseFlags(strings.Fields(tc.args))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one naming %q", tc.args, err, tc.want)
		}
	}

	addr, pprofAddr, opts, err := parseFlags(strings.Fields("-pprof :6060 -queue 8 -peers a:1,b:2 -self a:1"))
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":8344" || pprofAddr != ":6060" || opts.QueueDepth != 8 ||
		opts.SnapshotEvery != 64 || !slices.Equal(opts.Peers, []string{"a:1", "b:2"}) || opts.Self != "a:1" {
		t.Errorf("parsed %q %q %+v", addr, pprofAddr, opts)
	}

	// The first column of README's cfdserved table is the flag surface:
	// a flag in one and not the other fails with its name.
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "### `cfdserved`")
	section, _, _ = strings.Cut(section, "\n### ")
	var listed []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| `-") {
			for _, name := range strings.Split(strings.Split(line, "|")[1], ",") {
				listed = append(listed, strings.Trim(name, " `"))
			}
		}
	}
	slices.Sort(listed)
	// A help request makes the flag package print every defined flag
	// to os.Stderr, a few KB: the pipe holds it all before it is read.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	_, _, _, err = parseFlags([]string{"-h"})
	os.Stderr = stderr
	w.Close()
	usage, _ := io.ReadAll(r)
	r.Close()
	if !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: error %v, want flag.ErrHelp", err)
	}
	var defined []string
	for _, line := range strings.Split(string(usage), "\n") {
		if strings.HasPrefix(line, "  -") {
			defined = append(defined, strings.Fields(line)[0])
		}
	}
	slices.Sort(defined)
	if len(defined) != 12 || !slices.Equal(listed, defined) {
		t.Errorf("README lists %v\nbinary defines %d: %v", listed, len(defined), defined)
	}
}
