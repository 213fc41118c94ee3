package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cfdclean"
	"cfdclean/internal/relation"
	"cfdclean/internal/server"
)

// stageSample is one /apply as the client and the server saw it: the
// round trip, and the server's own split of it from the X-Stage-* headers.
type stageSample struct{ rtt, queue, engine, persist time.Duration }

// serverStats is what driving a server adds to a round's numbers.
type serverStats struct {
	create, recoverT time.Duration
	pages            []time.Duration
	httpFail         int
	rateLimited      int
}

const sessionName = "bench"

// snapEvery is the server's default: a round of 128 batches crosses two
// snapshot rotations and their store flushes.
const snapEvery = "64"

// Every quietEvery-th op the writer opens a quiet window: it has its reply,
// the reader is held between two reads, so the server is idle, and the
// reference kernel (ref.go) runs quietCalls times. Four ops then run back to
// back beside the reader, and eight kernel calls span as long here (a third
// of a second) as they do in-process.
const (
	quietEvery = 4
	quietCalls = 2
)

// child is a running cfdserved.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *tailBuffer
	done chan struct{} // closed once the process has been reaped
}

// tailBuffer keeps the end of the child's log for error reports.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	t.b = append(t.b, line...)
	t.b = append(t.b, '\n')
	if len(t.b) > 4096 {
		t.b = t.b[len(t.b)-4096:]
	}
	t.mu.Unlock()
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// startServer boots cfdserved on dataDir and returns once it listens,
// which — recovery runs before the listener opens — is also once every
// persisted session is back.
func startServer(e *env, dataDir string) (*child, error) {
	cmd := exec.Command(e.served,
		"-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-fsync", "batch", "-store", "disk", "-snap-every", snapEvery)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, log: &tailBuffer{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.log.add(line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		cmd.Wait()
		close(c.done)
	}()
	select {
	case a := <-addr:
		c.base = "http://" + a
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("cfdserved exited before listening:\n%s", c.log)
	case <-time.After(30 * time.Second):
		c.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("cfdserved did not listen within 30s:\n%s", c.log)
	}
}

// stop signals the child and waits until it has ended; a child that
// ignores the signal for ten seconds is killed.
func (c *child) stop(sig syscall.Signal) {
	c.cmd.Process.Signal(sig)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
}

// newClient is one connection's worth of HTTP client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// call does one JSON request and decodes a 2xx body into out.
func call(cl *http.Client, method, url string, body, out any) (http.Header, int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.Header, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.Header, resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		err = json.Unmarshal(b, out)
	}
	return resp.Header, resp.StatusCode, err
}

// dump streams the session's CSV. It returns the body only when keep is
// set; rows excludes the header. A dump without the X-Dump-Complete
// trailer is an error.
func dump(cl *http.Client, base string, keep bool) (body []byte, rows int, err error) {
	resp, err := cl.Get(base + "/v1/sessions/" + sessionName + "/dump")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, 0, fmt.Errorf("dump: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	var w io.Writer = io.Discard
	if keep {
		w = &buf
	}
	lines := 0
	br := bufio.NewReaderSize(io.TeeReader(resp.Body, w), 64<<10)
	for {
		_, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if err != io.EOF {
				return nil, 0, err
			}
			break
		}
		lines++
	}
	if resp.Trailer.Get("X-Dump-Complete") != "true" {
		return nil, 0, errors.New("dump ended without the X-Dump-Complete trailer")
	}
	return buf.Bytes(), max(lines-1, 0), nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func stageHeader(h http.Header, name string) time.Duration {
	us, _ := strconv.ParseInt(h.Get(name), 10, 64)
	return time.Duration(us) * time.Microsecond
}

// serveRound is one round of serve_mixed.
func serveRound(c *roundCtx) (*roundStats, error) {
	st := &roundStats{srv: &serverStats{}}
	// The slowdown around the set-up: these calls before it, the first
	// quiet windows' after it.
	for i := 0; i < refWindow/2; i++ {
		st.refSample()
	}
	t0 := time.Now()
	sp := c.tr.begin("setup", c.span, -1)
	in, err := buildStream(c.env.sizes().serve, subSeed(c.seed, c.round, 0))
	if err != nil {
		return nil, err
	}
	return st, driveServer(c, st, in, t0, sp)
}

// driveServer runs one stream against a fresh cfdserved child and records
// it in st: boot and create (the rest of the round's set-up, begun at t0),
// the writer's op schedule with a reader beside it, the final-state checks,
// then SIGKILL, restart on the same directory and the recovery check.
func driveServer(c *roundCtx, st *roundStats, in *stream, t0 time.Time, setupSpan int) error {
	ss := st.srv
	dir, err := os.MkdirTemp(c.env.tmp, "serve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := startServer(c.env, dir)
	if err != nil {
		return err
	}
	// Whatever path leaves this function, the child is gone after it.
	defer func() { srv.stop(syscall.SIGKILL) }()

	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	url := srv.base + "/v1/sessions/" + sessionName

	ss.create = timeIt(func() {
		_, _, err = call(writer, http.MethodPost, srv.base+"/v1/sessions", server.CreateRequest{
			Name: sessionName, CFDs: string(in.cfdText), BaseCSV: string(in.baseCSV),
		}, nil)
	})
	if err != nil {
		return fmt.Errorf("%w\n%s", err, srv.log)
	}
	st.setup(time.Since(t0))
	c.tr.end(setupSpan)

	// The reader: streamed dumps, each followed by one violations page,
	// until the writer's schedule ends. Between two reads it lets the
	// writer hold it for a quiet window.
	stop := make(chan struct{})
	pause := make(chan chan struct{})
	var rd struct {
		sync.WaitGroup
		dumps []sample
		pages []time.Duration
		fails int
	}
	var refCalls atomic.Int64 // len(st.ref), for the reader to place its dumps by
	refCalls.Store(int64(len(st.ref)))
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			case resume := <-pause:
				<-resume
			default:
			}
			sp := c.tr.begin("server.dump", c.span, -1)
			t := time.Now()
			_, rows, err := dump(reader, srv.base, false)
			d := time.Since(t)
			c.tr.end(sp)
			if err != nil {
				rd.fails++
				continue
			}
			rd.dumps = append(rd.dumps, sample{d, int(refCalls.Load()), rows})
			var page server.ViolationsResponse
			t = time.Now()
			if _, _, err := call(reader, http.MethodGet, url+"/violations?limit=64", nil, &page); err != nil {
				rd.fails++
				continue
			}
			rd.pages = append(rd.pages, time.Since(t))
		}
	}()
	quietWindow := func() {
		resume := make(chan struct{})
		pause <- resume // taken once the reader is between two reads
		for i := 0; i < quietCalls; i++ {
			st.refSample()
		}
		refCalls.Store(int64(len(st.ref)))
		close(resume)
	}

	var writeErr error
	for i := range in.batches {
		b := &in.batches[i]
		req := server.ApplyRequest{Inserts: make([]server.WireTuple, len(b.inserts))}
		for j, t := range b.inserts {
			req.Inserts[j] = server.EncodeTuple(t)
		}
		var resp server.ApplyResponse
		sp := c.tr.begin("server.apply", c.span, i)
		t := time.Now()
		hdr, status, err := call(writer, http.MethodPost, url+"/apply", req, &resp)
		d := time.Since(t)
		c.tr.end(sp)
		if status == http.StatusTooManyRequests {
			ss.rateLimited++
		}
		if err != nil {
			ss.httpFail++
			writeErr = err
			break
		}
		smp := stageSample{d, stageHeader(hdr, "X-Stage-Queue-Us"), stageHeader(hdr, "X-Stage-Engine-Us"), stageHeader(hdr, "X-Stage-Persist-Us")}
		st.stages = append(st.stages, smp)
		at := t
		for _, s := range []struct {
			name string
			d    time.Duration
		}{{"server.queue", smp.queue}, {"server.engine", smp.engine}, {"server.persist", smp.persist}} {
			c.tr.add(s.name, at, s.d, sp, i)
			at = at.Add(s.d)
		}
		st.op(d, b.tuples())
		// The server's stages run one after the other inside the round
		// trip, so what is left of it — server.codec_ms_p50 — is never
		// negative.
		st.check(smp.queue+smp.engine+smp.persist <= d, "serve: op %d: server stages %v+%v+%v exceed the round trip %v", i, smp.queue, smp.engine, smp.persist, d)
		st.check(resp.Snapshot.Satisfied, "serve: session violates Σ after op %d", i)
		st.repairCost += resp.Cost
		for _, wt := range resp.Inserted {
			id := relation.TupleID(wt.ID)
			rep := make([]relation.Value, len(wt.Vals))
			for a, p := range wt.Vals {
				if p == nil {
					rep[a] = relation.NullValue
				} else {
					rep[a] = relation.S(*p)
				}
			}
			st.q.score(in.ds.Dirty.Tuple(id).Vals, rep, in.ds.Opt.Tuple(id).Vals)
		}
		if (i+1)%quietEvery == 0 || i == len(in.batches)-1 {
			quietWindow()
		}
	}
	close(stop)
	rd.Wait()
	if writeErr != nil {
		return fmt.Errorf("%w\n%s", writeErr, srv.log)
	}
	st.dumps = rd.dumps
	ss.pages = rd.pages
	ss.httpFail += rd.fails
	st.check(rd.fails == 0, "serve: %d reads failed or lacked the completion trailer", rd.fails)

	t := time.Now()
	final, rows, err := dump(reader, srv.base, true)
	if err != nil {
		return err
	}
	if len(st.dumps) == 0 {
		// A toy schedule can end before the reader's first dump does.
		st.dump(time.Since(t), rows)
	}
	if c.first || c.tr != nil {
		// Once per untraced run: the served state is byte-equal to an
		// in-process session fed the same ops. (Every round would double
		// the run's engine work; the rounds differ only in their seed.)
		// Traced rounds all do it, with the counting cost model: the
		// child cannot be instrumented, its engine work can be repeated.
		model, cm := c.model()
		mirror, err := in.open(&cfdclean.IncOptions{CostModel: model})
		if err != nil {
			return err
		}
		for i := range in.batches {
			if _, err := mirror.ApplyDelta(in.batches[i].inserts); err != nil {
				return err
			}
		}
		var want bytes.Buffer
		err = mirror.Dump(&want)
		mirror.Close()
		if err != nil {
			return err
		}
		st.check(bytes.Equal(final, want.Bytes()), "serve: final dump differs from the in-process session's")
		if cm != nil {
			st.strdistCalls, st.strdistBusy = cm.calls.Load(), cm.busy()
		}
	}
	if st.bytes, err = dirBytes(dir); err != nil {
		return err
	}
	st.stored = st.tuples
	st.childRSS = peakRSS(srv.cmd.Process.Pid)

	// Crash and recover: every acknowledged write must be back.
	srv.stop(syscall.SIGKILL)
	sp := c.tr.begin("server.recover", c.span, -1)
	t = time.Now()
	srv, err = startServer(c.env, dir)
	if err != nil {
		return err
	}
	ss.recoverT = time.Since(t)
	c.tr.end(sp)
	url = srv.base + "/v1/sessions/" + sessionName // a new port
	recovered, _, err := dump(reader, srv.base, true)
	if err != nil {
		return fmt.Errorf("dump after recovery: %w\n%s", err, srv.log)
	}
	st.check(bytes.Equal(recovered, final), "serve: dump after SIGKILL and restart differs from the last acknowledged state")
	if _, _, err := call(writer, http.MethodDelete, url, nil, nil); err != nil {
		return err
	}
	srv.stop(syscall.SIGTERM)
	return nil
}
